"""Exporters for the trace/metrics record.

Three formats, mirroring how the paper's measurements are consumed:

* **Chrome trace JSON** -- loads directly into ``chrome://tracing`` (or
  Perfetto) and renders the nested spans as the familiar flame chart, the
  reproduction of the Fig. 2 style kernel trace.  Counter samples
  (``Tracer.sample``) and metric final values become ``"C"`` counter
  events, so queue depth and CFL render as lanes under
  the spans instead of hiding in metadata.
* **JSONL** -- one span per line, the machine-readable stream for ad-hoc
  analysis (pandas, jq).
* **Text report** -- an aggregated tree with totals, counts and share of
  parent time, the Fig. 4 style per-phase breakdown.

All writers serialize through :mod:`repro.observability.jsonio`, so a
non-finite gauge (NaN residual, empty-histogram mean) produces strict
JSON (``null`` / ``"Infinity"``) instead of an invalid literal.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.observability.jsonio import dump_line, dumps, sanitize

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracer import Span, Tracer

__all__ = [
    "to_chrome_trace",
    "metric_counter_events",
    "write_chrome_trace",
    "span_records",
    "write_jsonl",
    "text_report",
]


def _args(span: "Span") -> dict:
    args = {}
    if span.tags:
        args.update({str(k): v for k, v in span.tags.items()})
    if span.counters:
        args.update({str(k): v for k, v in span.counters.items()})
    return args


def metric_counter_events(
    metrics: "MetricsRegistry", pid: int = 0, tid: int = 0, ts_us: float = 0.0
) -> list[dict]:
    """Chrome-trace counter (``"C"``) events for a registry's final values.

    Gauges become one counter sample named after the metric (``value``
    series); histograms expose their ``mean``/``p95``.  Non-finite values
    are skipped -- a NaN lane renders as garbage and ``Infinity`` is not
    JSON -- they remain visible, sanitized, in the trace ``metadata``.
    """
    events: list[dict] = []
    for name, snap in metrics.snapshot().items():
        base = {"name": name, "ph": "C", "cat": "metric", "pid": pid, "tid": tid, "ts": ts_us}
        if snap.get("type") == "gauge":
            if math.isfinite(snap["value"]):
                events.append({**base, "args": {"value": snap["value"]}})
        elif snap.get("type") == "histogram":
            series = {
                k: snap[k] for k in ("mean", "p95") if math.isfinite(snap.get(k, math.nan))
            }
            if series:
                events.append({**base, "args": series})
    return events


def to_chrome_trace(
    tracer: "Tracer",
    metrics: "MetricsRegistry | None" = None,
    pid: int = 0,
    tid: int = 0,
    process_name: str = "repro",
) -> dict:
    """Build a Chrome-trace ``dict`` (``chrome://tracing``-loadable).

    Spans become ``"X"`` (complete) events with microsecond timestamps;
    instant events become ``"i"`` events; counter samples
    (:meth:`~repro.observability.tracer.Tracer.sample`) become ``"C"``
    events that render as metric lanes.  A metrics snapshot, when given,
    contributes final-value ``"C"`` lanes placed at the end of the
    timeline *and* rides along as trace ``metadata`` so one file carries
    the whole record.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": process_name},
        }
    ]
    end_ts = 0.0
    for span in tracer.walk():
        if span.end is None:
            continue  # still open; an exported half-span would render as garbage
        end_ts = max(end_ts, span.end * 1e6)
        base = {
            "name": span.name,
            "cat": str(span.tags.get("cat", "sim")),
            "pid": pid,
            "tid": tid,
            "ts": span.start * 1e6,
        }
        if span.sample:
            value = span.counters.get("value", 0.0)
            if math.isfinite(value):
                events.append({**base, "ph": "C", "args": {"value": value}})
        elif span.instant:
            events.append({**base, "ph": "i", "s": "t", "args": _args(span)})
        else:
            events.append(
                {**base, "ph": "X", "dur": span.duration * 1e6, "args": _args(span)}
            )
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics is not None:
        events.extend(metric_counter_events(metrics, pid=pid, tid=tid, ts_us=end_ts))
        trace["metadata"] = {"metrics": metrics.snapshot()}
    return trace


def write_chrome_trace(
    path, tracer: "Tracer", metrics: "MetricsRegistry | None" = None, **kwargs
) -> None:
    """Serialize :func:`to_chrome_trace` to ``path`` (strict JSON)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(to_chrome_trace(tracer, metrics, **kwargs)))


def span_records(tracer: "Tracer"):
    """Flat span dicts (one per finished span), depth-first order."""
    for span in tracer.walk():
        if span.end is None:
            continue
        yield {
            "name": span.name,
            "start": span.start,
            "duration": span.duration,
            "depth": span.depth,
            "parent": span.parent.name if span.parent is not None else None,
            "instant": span.instant,
            "sample": span.sample,
            "tags": sanitize(dict(span.tags)),
            "counters": sanitize(dict(span.counters)),
        }


def write_jsonl(path, tracer: "Tracer") -> None:
    """One JSON object per finished span, one per line (strict JSON)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in span_records(tracer):
            fh.write(dump_line(rec))


def text_report(tracer: "Tracer", metrics: "MetricsRegistry | None" = None) -> str:
    """Aggregated per-path breakdown (the Fig. 4 quantity, as text).

    Spans are grouped by their slash-joined path; each line shows total
    seconds, call count and the share of the parent path's total.
    """
    agg = tracer.aggregate()
    lines = ["== trace breakdown =="]
    if not agg:
        lines.append("(no spans recorded)")
    for path in sorted(agg):
        total, count = agg[path]
        depth = path.count("/")
        name = path.rsplit("/", 1)[-1]
        parent = path.rsplit("/", 1)[0] if depth else None
        share = ""
        if parent is not None and agg.get(parent, (0.0, 0))[0] > 0:
            share = f"  {100.0 * total / agg[parent][0]:5.1f}% of {parent.rsplit('/', 1)[-1]}"
        lines.append(f"{'  ' * depth}{name:<24s} {total:10.4f} s  ({count} calls){share}")
    if metrics is not None and len(metrics):
        lines += ["", "== metrics ==", metrics.report()]
    return "\n".join(lines)
