"""span-hygiene: span and metric names must come from the phase registry.

Every span name must be one of the Fig. 4 phases (or belong to a
registered dynamic family like ``krylov.<solver>``), and every metric
name must belong to a registered family -- otherwise the Chrome-trace
exporter, the text reports and the benchmark's per-phase metrics silently
grow orphan series nobody aggregates.  The registry lives in
:mod:`repro.observability.phases`; this rule closes the loop statically.

Only *constant* names can be checked: plain string literals are matched
exactly, f-strings by their leading constant prefix (``f"krylov.{name}"``
passes because ``krylov.`` is a registered family).  Fully dynamic names
(a bare variable) are skipped -- they are the framework's business, and
the framework modules themselves (``repro.observability``) are excluded.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.observability.phases import (
    METRIC_PREFIXES,
    SPAN_PREFIXES,
    is_registered_metric,
    is_registered_span,
)
from repro.statcheck.engine import ModuleContext
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules.base import Rule

__all__ = ["SpanHygieneRule"]

#: Methods whose first argument is a span name.
_SPAN_METHODS = {"span", "record_span", "event", "region"}
#: Methods whose first argument is a metric name.  ``sample`` is the
#: tracer's timestamped counter-sample hook: its series land in the same
#: exported lanes as registry metrics, so the same taxonomy applies.
_METRIC_METHODS = {"counter", "gauge", "histogram", "sample"}


class SpanHygieneRule(Rule):
    name = "span-hygiene"
    severity = Severity.WARNING
    description = (
        "literal tracer span / RegionTimers region / metric names must match "
        "the Fig. 4 phase registry (repro.observability.phases)"
    )

    def applies(self, ctx: ModuleContext) -> bool:
        # The observability package *implements* the generic machinery
        # (metrics are constructed from arbitrary `name=` parameters there)
        # and statcheck ships fixture-like strings; both are out of scope.
        return not ctx.in_package("observability", "statcheck")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method in _SPAN_METHODS:
                kind, check, prefixes = "span", is_registered_span, SPAN_PREFIXES
            elif method in _METRIC_METHODS:
                kind, check, prefixes = "metric", is_registered_metric, METRIC_PREFIXES
            else:
                continue
            if not node.args:
                continue
            name = _constant_prefix(node.args[0])
            if name is None:
                continue  # dynamic name; not statically checkable
            literal, is_exact = name
            ok = check(literal) if is_exact else literal.startswith(tuple(prefixes)) or any(
                p.startswith(literal) for p in prefixes
            )
            if not ok:
                yield ctx.finding(
                    self,
                    node,
                    f"unregistered {kind} name {literal!r}: add it to "
                    f"repro.observability.phases or use a registered family "
                    f"({', '.join(prefixes)})",
                )


def _constant_prefix(node: ast.expr) -> tuple[str, bool] | None:
    """``(text, is_exact)`` for literals / f-string prefixes, else None.

    A plain string literal returns ``(value, True)``; an f-string whose
    first piece is a constant returns ``(prefix, False)``; anything else
    (bare variable, concatenation, empty-prefix f-string) returns None.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, True
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value, False
    return None
