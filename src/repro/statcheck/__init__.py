"""Domain-invariant static analysis.

``python -m repro.statcheck src/`` runs four per-module AST rules that
guard invariants the paper's claims rest on (bitwise-reproducible DNS, a
closed span taxonomy, scoped resources, API hygiene).  Each finding
carries a severity; the only way to silence one is an inline
``# statcheck: ignore[RULE] -- reason`` comment on the offending line,
the line above it, or the decorator line of a decorated ``def``.

See README "Static analysis".
"""

from repro.statcheck.engine import ModuleContext, check_paths, iter_python_files
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules import ALL_RULES, Rule, get_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "ModuleContext",
    "Rule",
    "Severity",
    "check_paths",
    "get_rules",
    "iter_python_files",
]
