"""Bridges from existing measurement objects into the unified record.

The solver already measures a lot of itself -- ``SolverMonitor`` residual
histories, ``PipelineStats`` on the in-situ stream, the resilience
``EventLog``.  These helpers fold all of it into one :class:`~repro.observability.metrics.MetricsRegistry` /
:class:`~repro.observability.tracer.Tracer` pair so a single export call
carries the whole story of a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.resilience.events import EventLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.insitu.pipeline import PipelineStats
    from repro.sem.gather_scatter import GatherScatter
    from repro.solvers.monitor import SolverMonitor

__all__ = [
    "TracedEventLog",
    "record_solver_monitor",
    "publish_pipeline_stats",
    "publish_gather_scatter",
]


class TracedEventLog(EventLog):
    """An :class:`EventLog` that mirrors every event into a tracer.

    Hand one to the resilience runner instead of a plain log and faults,
    rollbacks and retries appear as instant events on the same timeline as
    the solver phases -- the trace shows *when* the run stumbled, not just
    that it did.
    """

    def __init__(self, tracer: Tracer = NULL_TRACER, metrics: MetricsRegistry | None = None) -> None:
        super().__init__()
        self.tracer = tracer
        self.metrics = metrics

    def record(self, kind, step=-1, time=0.0, detail="", **data):
        ev = super().record(kind, step=step, time=time, detail=detail, **data)
        self.tracer.event(
            f"resilience.{kind}", cat="resilience", step=step, sim_time=time, detail=detail
        )
        if self.metrics is not None:
            self.metrics.counter(f"resilience.{kind}").inc()
        return ev


def record_solver_monitor(
    mon: "SolverMonitor", metrics: MetricsRegistry, prefix: str = "solver"
) -> None:
    """Fold one linear solve's outcome into the registry."""
    name = mon.name or "unnamed"
    metrics.histogram(f"{prefix}.{name}.iterations").record(mon.iterations)
    metrics.counter(f"{prefix}.{name}.solves").inc()
    if not mon.converged:
        metrics.counter(f"{prefix}.{name}.unconverged").inc()
    if mon.residuals:
        metrics.gauge(f"{prefix}.{name}.final_residual").set(mon.final_residual)
        # What ``tol`` was relative to: ||b|| for a guessed CG solve, ||r_0|| else.
        metrics.gauge(f"{prefix}.{name}.reference_residual").set(mon.reference)


def publish_pipeline_stats(
    stats: "PipelineStats", metrics: MetricsRegistry, prefix: str = "insitu"
) -> None:
    """Publish in-situ pipeline totals (items, bytes, latency, quarantines).

    Gauges, not counters: the stats object already carries lifetime totals,
    so publishing is idempotent snapshot-taking.
    """
    metrics.gauge(f"{prefix}.items").set(stats.items)
    metrics.gauge(f"{prefix}.bytes").set(stats.bytes_in)
    metrics.gauge(f"{prefix}.producer_wait_s").set(stats.producer_wait)
    metrics.gauge(f"{prefix}.dropped").set(stats.dropped)
    metrics.gauge(f"{prefix}.retries").set(stats.retries)
    metrics.gauge(f"{prefix}.quarantined").set(len(stats.quarantined))
    for name, seconds in stats.processor_time.items():
        metrics.gauge(f"{prefix}.processor.{name}.seconds").set(seconds)
    for name, fails in stats.processor_failures.items():
        metrics.gauge(f"{prefix}.processor.{name}.failures").set(fails)


def publish_gather_scatter(
    gs: "GatherScatter", metrics: MetricsRegistry, prefix: str = "gs"
) -> None:
    """Publish gather--scatter call/traffic totals for one operator."""
    metrics.gauge(f"{prefix}.calls").set(gs.calls)
    metrics.gauge(f"{prefix}.bytes_moved").set(gs.bytes_moved)
    metrics.gauge(f"{prefix}.seconds").set(gs.seconds)
    metrics.gauge(f"{prefix}.shared_dofs").set(gs.n_shared)
