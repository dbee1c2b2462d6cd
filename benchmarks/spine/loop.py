"""The closed loop every workload is measured with, and what it reports.

One client: the next operation starts when the previous one returned.  A
workload has a *job* (a fixed number of operations whose wall time is its
``time_to_result_s``) and a duration; the loop runs until the job is done
and ``seconds`` have passed, whichever comes last.

In a traced run the loop alternates blocks of ``block`` operations with
the wrappers taken off and put on, so both halves see the same flow states
and their ratio is the tracing overhead.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from time import perf_counter

from benchmarks.spine.spans import SpanTracer
from benchmarks.spine.summary import median, tail

__all__ = ["Loop", "Tally", "closed_loop", "end_to_end", "trace_overhead", "peak_rss_mb"]


@dataclass
class Loop:
    """What one closed loop measured, in wall seconds."""

    durations: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    wall: float = 0.0
    job_wall: float = 0.0


@dataclass
class Tally:
    """Operations attempted and failed, and the named checks behind them."""

    attempted: int = 0
    failed: int = 0
    checks: list[dict] = field(default_factory=list)

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str) -> None:
        """A validity check; each counts as one operation."""
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def closed_loop(
    op,
    *,
    seconds: float,
    job_ops: int,
    after_op=None,
    tracer: SpanTracer | None = None,
    targets=(),
    block: int = 1,
    span: str = "core.step",
) -> Loop:
    """Run ``op()`` until ``job_ops`` are done and ``seconds`` have passed.

    ``after_op(i)`` runs between operations (statistics sampling); it counts
    toward the loop's wall time but not toward an operation's duration.
    """
    out = Loop()
    start = perf_counter()
    i = 0
    try:
        while i < job_ops or perf_counter() - start < seconds:
            trace_this = tracer is not None and (i // block) % 2 == 1
            if trace_this and not tracer.installed:
                tracer.install(targets)
            elif not trace_this and tracer is not None:
                tracer.restore()
            t0 = perf_counter()
            outcome = tracer.call(span, op) if trace_this else op()
            out.durations.append(perf_counter() - t0)
            out.traced.append(trace_this)
            out.outcomes.append(outcome)
            if after_op is not None:
                after_op(i)
            i += 1
            if i == job_ops:
                out.job_wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    out.wall = perf_counter() - start
    return out


def peak_rss_mb() -> float:
    """Process high-water mark (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    loop: Loop, setup_samples: list[float], dof: int, time_to_result: float | None = None
) -> dict:
    """The end-to-end metrics of one untraced loop, plus how they were sampled.

    ``time_to_result`` defaults to the loop's own job (its first ``job_ops``
    operations).  The tail latency is reported, not bounded: on a shared
    host its run-to-run spread (30 %) is wider than any bound allowed.
    """
    ops_per_s = len(loop.durations) / loop.wall
    tail_s, percentile = tail(loop.durations)
    return {
        "metrics": {
            "setup_s": median(setup_samples),
            "time_to_result_s": loop.job_wall if time_to_result is None else time_to_result,
            "ops_per_s": ops_per_s,
            "dof_ops_per_s": dof * ops_per_s,
            "op_ms_p50": 1e3 * median(loop.durations),
            "peak_rss_mb": peak_rss_mb(),
        },
        "samples": {
            "ops": len(loop.durations),
            "setup_builds": len(setup_samples),
            "op_ms_tail": 1e3 * tail_s,
            "tail_percentile": percentile,
        },
    }


def trace_overhead(loop: Loop) -> float:
    """Mean traced over mean untraced operation time, minus one."""
    traced = [d for d, t in zip(loop.durations, loop.traced) if t]
    plain = [d for d, t in zip(loop.durations, loop.traced) if not t]
    if not traced or not plain:
        return 0.0
    return (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0
