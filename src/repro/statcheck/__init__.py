"""Domain-invariant static analysis and runtime array contracts.

Three cross-checking layers guard the invariants the paper's claims rest
on (bitwise-reproducible DNS, a closed span taxonomy, allocation-free
hot loops):

* the **linter** (``python -m repro.statcheck src/``) -- per-module AST
  rules with per-finding severities, inline ``# statcheck: ignore[RULE]``
  suppressions and a committed count-based baseline
  (``statcheck_baseline.json``) so pre-existing findings don't block CI
  while new ones do;
* the **analyzer** (``--analysis {allocations,all}``) -- one
  interprocedural analysis over the project call graph
  (:mod:`repro.statcheck.callgraph`): per-iteration allocations on hot
  loops.  Its findings share the rules' suppression grammar, baseline and
  output formats;
* the **contracts** (:mod:`repro.statcheck.contracts`) -- shape/dtype
  specifications for the core ``(nelem, n, n, n)`` field layout, enforced
  at call boundaries when enabled (the test suite turns them on; runs
  default to zero-cost off).

See README "Static analysis & contracts".
"""

from repro.statcheck.analyzers import ALL_ANALYZERS, Analyzer, get_analyzers
from repro.statcheck.baseline import Baseline, partition_findings
from repro.statcheck.callgraph import CallGraph, Project, build_callgraph
from repro.statcheck.engine import (
    ModuleContext,
    check_paths,
    check_project,
    iter_python_files,
)
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules import ALL_RULES, Rule, get_rules

__all__ = [
    "ALL_ANALYZERS",
    "ALL_RULES",
    "Analyzer",
    "Baseline",
    "CallGraph",
    "Finding",
    "ModuleContext",
    "Project",
    "Rule",
    "Severity",
    "build_callgraph",
    "check_paths",
    "check_project",
    "get_analyzers",
    "get_rules",
    "iter_python_files",
    "partition_findings",
]
