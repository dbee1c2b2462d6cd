"""Observability: one span tracer, its exporters, and rank-imbalance analytics.

The measured counterpart of the paper's performance narrative: nested
span traces (Fig. 2's kernel trace) and per-phase wall-time breakdowns
(Fig. 4).  Counts are kept by the objects that produce them -- a
``SolverMonitor`` per solve, ``GatherScatter.calls`` / ``bytes_moved``,
``PipelineStats``, ``OperatorCache.hits`` / ``misses``, ``TrafficStats``
-- and a simulation's ``history`` holds CFL, dt and kinetic energy per
step.  Everything defaults to a no-op tracer so uninstrumented runs pay
(almost) nothing; see README "Observability".
"""

from repro.observability.export import text_report, to_chrome_trace, write_chrome_trace
from repro.observability.phases import PHASES, SPAN_PREFIXES, is_registered_span
from repro.observability.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.observability.imbalance import ImbalanceReport, analyze_totals

__all__ = [
    "PHASES",
    "SPAN_PREFIXES",
    "is_registered_span",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "to_chrome_trace",
    "write_chrome_trace",
    "text_report",
    "ImbalanceReport",
    "analyze_totals",
]
