"""Exporters for the trace record.

Two readers, mirroring how the paper's measurements are consumed:

* **Chrome trace JSON** -- loads directly into ``chrome://tracing`` (or
  Perfetto) and renders the nested spans as the familiar flame chart, the
  reproduction of the Fig. 2 style kernel trace.  Counter samples
  (``Tracer.sample``) become ``"C"`` counter events, so CFL and dt render
  as lanes under the spans.
* **Text report** -- an aggregated tree with totals, counts and share of
  parent time, the Fig. 4 style per-phase breakdown.

The Chrome trace serializes through :mod:`repro.observability.jsonio`, so
a non-finite span counter (a NaN residual) produces strict JSON (``null``
/ ``"Infinity"``) instead of an invalid literal.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.observability.jsonio import dumps

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.tracer import Span, Tracer

__all__ = ["to_chrome_trace", "write_chrome_trace", "text_report"]


def _args(span: "Span") -> dict:
    args = {}
    if span.tags:
        args.update({str(k): v for k, v in span.tags.items()})
    if span.counters:
        args.update({str(k): v for k, v in span.counters.items()})
    return args


def to_chrome_trace(
    tracer: "Tracer", pid: int = 0, tid: int = 0, process_name: str = "repro"
) -> dict:
    """Build a Chrome-trace ``dict`` (``chrome://tracing``-loadable).

    Spans become ``"X"`` (complete) events with microsecond timestamps;
    instant events become ``"i"`` events; counter samples
    (:meth:`~repro.observability.tracer.Tracer.sample`) become ``"C"``
    events that render as lanes.  A span's thread lane becomes its
    ``tid`` (offset by ``tid``), so work a step ran on its worker thread
    renders as a second row.
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
    for span in tracer.walk():
        if span.end is None:
            continue  # still open; an exported half-span would render as garbage
        base = {
            "name": span.name,
            "cat": str(span.tags.get("cat", "sim")),
            "pid": pid,
            "tid": tid + span.lane,
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
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, tracer: "Tracer", **kwargs) -> None:
    """Serialize :func:`to_chrome_trace` to ``path`` (strict JSON)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(to_chrome_trace(tracer, **kwargs)))


def text_report(tracer: "Tracer") -> str:
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
    return "\n".join(lines)
