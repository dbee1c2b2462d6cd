"""Per-region wall-clock timers.

The paper measures "MPI_Wtime timings around relevant code regions"; this
is the equivalent instrumentation for the Python solver, and the measured
counterpart of the Fig. 4 wall-time distribution.

A :class:`RegionTimers` can carry a
:class:`~repro.observability.tracer.Tracer`: every region entry then also
opens a trace span, so the flat Fig. 4 accumulation and the hierarchical
Fig. 2 style trace come from the *same* ``with timers.region(...)`` sites.
The default is the no-op tracer, which keeps the uninstrumented path
within a branch of the original code.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.observability.tracer import NULL_TRACER

__all__ = ["RegionTimers"]


class RegionTimers:
    """Accumulates wall time per named region (``pressure``, ``velocity``, ...).

    Regions may nest and re-enter: each entry is timed independently and
    accumulated under its own name (nested time is counted in both the
    outer and the inner region, as with MPI region timers).  Regions on
    two threads (a step's worker, :mod:`repro.core.overlap`) accumulate
    under a lock, and their times add up even where they overlapped.
    """

    def __init__(self, tracer=None) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._lock = threading.Lock()

    @contextmanager
    def region(self, name: str):
        """Context manager timing one region entry."""
        span_cm = self.tracer.span(name) if self.tracer.enabled else None
        if span_cm is not None:
            span_cm.__enter__()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self.totals[name] = self.totals.get(name, 0.0) + dt
                self.counts[name] = self.counts.get(name, 0) + 1
            if span_cm is not None:
                span_cm.__exit__(None, None, None)

    def total(self) -> float:
        """Sum over all regions."""
        return sum(self.totals.values())

    def fractions(self) -> dict[str, float]:
        """Share of total wall time per region (the Fig. 4 quantity)."""
        tot = self.total()
        if tot == 0.0:
            return {k: 0.0 for k in self.totals}
        return {k: v / tot for k, v in self.totals.items()}

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()

    def report(self) -> str:
        """Multi-line human-readable breakdown."""
        tot = self.total()
        lines = [f"total measured: {tot:.3f} s"]
        for k, v in sorted(self.totals.items(), key=lambda kv: -kv[1]):
            share = 100.0 * v / tot if tot else 0.0
            lines.append(f"  {k:<14s} {v:9.3f} s  {share:5.1f}%  ({self.counts[k]} calls)")
        return "\n".join(lines)
