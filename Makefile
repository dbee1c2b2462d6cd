# Developer entry points.  Everything here is what CI runs, so a green
# `make lint test` locally means a green lint/tests pair upstream.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint ruff mypy statcheck test verify spine ab

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
	$(PYTHON) benchmarks/spine/run.py --quick

# Alternating spine pairs of one workload: BASE (a git revision) against the
# working tree, e.g. `make ab WORKLOAD=rbc_cyl_p7 PAIRS=7 BASE=HEAD`.
PAIRS ?= 7
BASE ?= HEAD
ab:
	$(PYTHON) -m benchmarks.ab_pairs --workload $(WORKLOAD) --pairs $(PAIRS) --base $(BASE)
