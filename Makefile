# Developer entry points.  Everything here is what CI runs, so a green
# `make lint test` locally means a green lint/tests pair upstream.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint ruff mypy statcheck test verify spine chaos ab

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

# The seeded chaos campaign within 60 s, then a rerun whose JSON report
# must be byte-identical to the first.
chaos:
	mkdir -p chaos_out
	timeout 60 $(PYTHON) -m repro.resilience.chaos \
		--json chaos_out/chaos_report.json --trace chaos_out/chaos_trace.json
	timeout 60 $(PYTHON) -m repro.resilience.chaos --json chaos_out/chaos_rerun.json
	cmp chaos_out/chaos_report.json chaos_out/chaos_rerun.json

# Alternating spine pairs of one workload: BASE (a git revision) against the
# working tree, e.g. `make ab WORKLOAD=rbc_cyl_p7 PAIRS=7 BASE=HEAD`.
# AB_SECONDS is each run's loop length (15 s, the contract's, by default).
# `setup_s` is measured before the loop and does not depend on it, so a
# set-up-only comparison can pass e.g. AB_SECONDS=1.
PAIRS ?= 7
BASE ?= HEAD
AB_SECONDS ?= 15
ab:
	$(PYTHON) -m benchmarks.ab_pairs --workload $(WORKLOAD) --pairs $(PAIRS) --base $(BASE) \
		--seconds $(AB_SECONDS)
