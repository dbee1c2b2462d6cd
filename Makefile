# Developer entry points.  Everything here is what CI runs, so a green
# `make lint test` locally means a green lint/tests pair upstream.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint ruff mypy statcheck test verify spine

lint: ruff mypy statcheck

ruff:
	ruff check src tests benchmarks

mypy:
	mypy --strict -p repro.solvers -p repro.timeint

# The domain rules; findings are silenced only by inline suppressions.
statcheck:
	$(PYTHON) -m repro.statcheck src/

test:
	$(PYTHON) -m pytest -x -q

verify:
	$(PYTHON) -m repro.verify --quick --out verify_report.json

# The measurement spine's own tests plus a quick pass of its workloads.
spine:
	$(PYTHON) -m pytest benchmarks/spine/tests -q
	python3 benchmarks/spine/run.py --quick
