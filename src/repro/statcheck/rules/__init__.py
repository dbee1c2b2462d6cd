"""The domain rule set.

Four rules, each encoding an invariant the paper's claims rest on; see the
individual modules for the rationale.  :data:`ALL_RULES` is the default
set the CLI runs; :func:`get_rules` resolves ``--select`` names.
"""

from __future__ import annotations

from repro.statcheck.rules.api_hygiene import ApiHygieneRule
from repro.statcheck.rules.base import Rule
from repro.statcheck.rules.determinism import DeterminismRule
from repro.statcheck.rules.resource_discipline import ResourceDisciplineRule
from repro.statcheck.rules.span_hygiene import SpanHygieneRule

__all__ = [
    "Rule",
    "ALL_RULES",
    "get_rules",
    "DeterminismRule",
    "SpanHygieneRule",
    "ResourceDisciplineRule",
    "ApiHygieneRule",
]

ALL_RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    SpanHygieneRule,
    ResourceDisciplineRule,
    ApiHygieneRule,
)


def get_rules(select: list[str] | None = None) -> list[Rule]:
    """Instantiate the rule set, optionally narrowed to ``select`` names."""
    by_name = {cls.name: cls for cls in ALL_RULES}
    if select is None:
        return [cls() for cls in ALL_RULES]
    unknown = [s for s in select if s not in by_name]
    if unknown:
        raise ValueError(f"unknown rule(s) {unknown}; available: {sorted(by_name)}")
    return [by_name[s]() for s in select]
