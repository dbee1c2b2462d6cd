"""Unified observability: trace spans, metrics, exporters, bridges.

The measured counterpart of the paper's performance narrative: nested
span traces (Fig. 2's kernel trace), per-phase wall-time breakdowns
(Fig. 4) and the counter/gauge/histogram registry behind the bench
trajectory.  Everything defaults to a no-op tracer so uninstrumented runs
pay (almost) nothing; see README "Observability".
"""

from repro.observability.export import (
    span_records,
    text_report,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observability.phases import (
    METRIC_PREFIXES,
    PHASES,
    SPAN_PREFIXES,
    is_registered_metric,
    is_registered_span,
)
from repro.observability.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.observability.fleet import (
    FlightBundle,
    FlightRecorder,
    ImbalanceReport,
    analyze_totals,
)

# The bridge module reaches into repro.resilience (whose package __init__
# reaches back into repro.core); importing it eagerly here would close an
# import cycle through core.timers.  PEP 562 lazy attribute access breaks
# it: the bridge loads on first use, when everything is initialized.
_BRIDGE_EXPORTS = {
    "TracedEventLog",
    "record_solver_monitor",
    "publish_pipeline_stats",
    "publish_gather_scatter",
}


def __getattr__(name: str):
    if name in _BRIDGE_EXPORTS:
        from repro.observability import bridge

        return getattr(bridge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "PHASES",
    "SPAN_PREFIXES",
    "METRIC_PREFIXES",
    "is_registered_span",
    "is_registered_metric",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "to_chrome_trace",
    "write_chrome_trace",
    "span_records",
    "write_jsonl",
    "text_report",
    "TracedEventLog",
    "record_solver_monitor",
    "publish_pipeline_stats",
    "publish_gather_scatter",
    "ImbalanceReport",
    "analyze_totals",
    "FlightRecorder",
    "FlightBundle",
]
