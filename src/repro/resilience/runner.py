"""Rollback-and-retry execution: the resilient wrapper around ``run``.

``Simulation.run`` is fail-fast: a NaN anywhere raises and the run is
lost.  At production scale that is unacceptable -- the paper's campaign
survives weeks of wall time only because failed intervals are replayed
from checkpoints.  :class:`ResilientRunner` reproduces that operational
loop:

1. advance the simulation one *segment* (``checkpoint_interval`` steps);
2. apply any scheduled injected faults (testing hook);
3. run the :class:`~repro.resilience.health.HealthCheck` over the new
   state and step results;
4. healthy: checkpoint into the :class:`CheckpointRing` and continue;
   unhealthy (or the segment raised the divergence guard / a simulated
   rank failure): roll back to the newest valid ring entry, optionally
   reduce ``dt``, back off, and retry -- up to ``max_retries``
   consecutive attempts per incident.

Every decision lands in the structured :class:`EventLog` returned with
the results; the default log is built on ``sim.tracer``, so each decision
is also a ``resilience.<kind>`` event in the run's trace.  Backoff
sleeping goes through an injectable ``sleep`` callable so tests run
without wall-clock delays.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.resilience.checkpoint_ring import CheckpointRing
from repro.resilience.events import EventLog
from repro.resilience.faults import FaultInjector, RankFailedError
from repro.resilience.health import HealthCheck

__all__ = ["ResilientRunner", "ResilientResult", "RetryBudgetExceededError"]


class RetryBudgetExceededError(RuntimeError):
    """The run kept failing after exhausting its retry budget."""

    def __init__(self, message: str, events: EventLog) -> None:
        super().__init__(message)
        self.events = events


@dataclass
class ResilientResult:
    """Outcome of a resilient run: the realized history plus the record."""

    results: list = field(default_factory=list)
    events: EventLog = field(default_factory=EventLog)
    retries: int = 0
    checkpoints: int = 0

    @property
    def recovered(self) -> bool:
        return self.retries > 0


class ResilientRunner:
    """Run a simulation to completion through faults.

    Parameters
    ----------
    sim:
        A :class:`~repro.core.simulation.Simulation` (or any duck-typed
        equivalent exposing ``run``, ``step_count``, ``time``, ``dt``,
        ``history`` and ``stat_samples``).
    ring:
        Checkpoint storage; defaults to an in-memory
        :class:`CheckpointRing` of capacity 3.
    checkpoint_interval:
        Steps per segment between checkpoints/health checks.
    health:
        The :class:`HealthCheck` consulted after each segment; defaults to
        a finite-field scan with a CFL ceiling of 10.
    max_retries:
        Consecutive failed attempts allowed per incident before
        :class:`RetryBudgetExceededError`; a healthy segment resets the
        counter.
    dt_factor:
        Step-size reduction applied when retrying after a *divergence*
        or *CFL-ceiling* failure (and, with ``reduce_dt_on_fault=True``,
        after any failure).  Adaptive runs scale their CFL target and ``dt_max``
        instead, since the controller would otherwise regrow ``dt``
        immediately.
    backoff, backoff_base, sleep:
        Retry ``n`` sleeps ``backoff * backoff_base**(n-1)`` seconds via
        the injectable ``sleep`` callable (tests pass a recorder; the
        default ``backoff=0`` never sleeps).
    fault_injector:
        Optional :class:`FaultInjector` whose scheduled SDC faults are
        applied between segments (each fires once -- the transient model).
    """

    def __init__(
        self,
        sim,
        ring: CheckpointRing | None = None,
        checkpoint_interval: int = 10,
        health: HealthCheck | None = None,
        event_log: EventLog | None = None,
        max_retries: int = 3,
        dt_factor: float = 0.5,
        reduce_dt_on_fault: bool = False,
        backoff: float = 0.0,
        backoff_base: float = 2.0,
        sleep=_time.sleep,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.sim = sim
        self.ring = ring if ring is not None else CheckpointRing(capacity=3)
        self.checkpoint_interval = checkpoint_interval
        self.health = health if health is not None else HealthCheck()
        self.events = (
            event_log if event_log is not None else EventLog(getattr(sim, "tracer", None))
        )
        self.max_retries = max_retries
        self.dt_factor = dt_factor
        self.reduce_dt_on_fault = reduce_dt_on_fault
        self.backoff = backoff
        self.backoff_base = backoff_base
        self.sleep = sleep
        self.fault_injector = fault_injector
        # History/statistics lengths at each checkpointed step, so a
        # rollback can truncate the records the checkpoint itself does not
        # capture and the realized history stays consistent.
        self._lens: dict[int, tuple[int, int]] = {}

    # -- checkpointing ----------------------------------------------------------

    def _save(self) -> None:
        sim = self.sim
        entry = self.ring.save(sim)
        self._lens[entry.step] = (
            len(getattr(sim, "history", ())),
            len(getattr(sim, "stat_samples", ())),
        )
        self.events.record("checkpoint", step=entry.step, time=entry.time, detail="ring checkpoint")

    def _rollback(self) -> None:
        sim = self.sim
        entry, skipped = self.ring.restore_latest(sim)
        for bad in skipped:
            self.events.record(
                "corrupt_checkpoint",
                step=bad.step,
                detail="ring entry failed verification; falling back",
            )
        n_hist, n_stats = self._lens.get(entry.step, (0, 0))
        if hasattr(sim, "history"):
            del sim.history[n_hist:]
        if hasattr(sim, "stat_samples"):
            del sim.stat_samples[n_stats:]
        self.health.reset()
        self.events.record(
            "rollback",
            step=entry.step,
            time=entry.time,
            detail=f"restored checkpoint at step {entry.step}",
            skipped=[b.step for b in skipped],
        )

    def _reduce_dt(self, power: int = 1) -> None:
        sim = self.sim
        old_dt = sim.dt
        if getattr(sim, "adaptive", False):
            # The config survives rollback, so one scaling per failed
            # attempt compounds naturally across consecutive retries.
            cfg = sim.config
            cfg.adaptive_cfl *= self.dt_factor
            cfg.dt_max = max(cfg.dt_max * self.dt_factor, cfg.dt_min)
        # Rollback restored the *checkpoint's* dt, so consecutive retries
        # of the same incident must compound: attempt n runs at
        # dt * dt_factor**n, not the same reduced dt every time.
        new_dt = max(
            sim.dt * self.dt_factor**power, getattr(sim.config, "dt_min", 0.0)
        )
        sim.dt = new_dt
        sim.fluid.set_dt(new_dt)
        sim.scalar.set_dt(new_dt)
        self.events.record(
            "dt_reduction",
            step=sim.step_count,
            time=sim.time,
            detail=f"dt {old_dt:.3e} -> {new_dt:.3e}",
            old_dt=old_dt,
            new_dt=new_dt,
        )

    # -- the loop ---------------------------------------------------------------

    def run(
        self,
        n_steps: int | None = None,
        end_time: float | None = None,
        callback_interval: int = 0,
        stats_interval: int = 0,
        print_interval: int = 0,
    ) -> ResilientResult:
        """Advance until ``n_steps`` more steps or ``end_time``, surviving faults."""
        if n_steps is None and end_time is None:
            raise ValueError("give n_steps or end_time")
        sim = self.sim
        start_hist = len(getattr(sim, "history", ()))
        target_step = sim.step_count + n_steps if n_steps is not None else None
        attempts = 0
        retries_total = 0
        checkpoints = 0
        self._save()  # baseline: rollback works even before the first segment

        while True:
            if target_step is not None and sim.step_count >= target_step:
                break
            if end_time is not None and sim.time >= end_time - 1e-12:
                break
            seg = self.checkpoint_interval
            if target_step is not None:
                seg = min(seg, target_step - sim.step_count)

            failure: tuple[str, str] | None = None
            try:
                sim.run(
                    n_steps=seg,
                    end_time=end_time,
                    callback_interval=callback_interval,
                    stats_interval=stats_interval,
                    print_interval=print_interval,
                )
            except FloatingPointError as exc:
                failure = ("divergence", str(exc))
            except RankFailedError as exc:
                failure = ("rank_failure", str(exc))

            if failure is None and self.fault_injector is not None:
                for ev in self.fault_injector.apply_field_faults(sim):
                    self.events.record(
                        "fault",
                        step=sim.step_count,
                        time=sim.time,
                        detail=ev.detail,
                        **ev.data,
                    )
            if failure is None:
                new_results = sim.history[self._checked_len(start_hist):]
                issues = self.health.check(sim, new_results)
                if issues:
                    failure = (
                        issues[0].kind,
                        "; ".join(i.message for i in issues),
                    )

            if failure is None:
                attempts = 0
                self._save()
                checkpoints += 1
                continue

            kind, message = failure
            self.events.record(
                "fault_detected",
                step=sim.step_count,
                time=sim.time,
                detail=message,
                cause=kind,
            )
            attempts += 1
            retries_total += 1
            if attempts > self.max_retries:
                self.events.record(
                    "retry_budget",
                    step=sim.step_count,
                    time=sim.time,
                    detail=f"retry budget exhausted: {message}",
                    cause=kind,
                    attempts=attempts - 1,
                )
                raise RetryBudgetExceededError(
                    f"giving up after {attempts - 1} retries: {message}", self.events
                )
            self._rollback()
            # Divergence and CFL-ceiling failures are the "dt too large"
            # class: replaying them at the same dt fails deterministically,
            # so the retry must shrink the step.  Transient faults (SDC,
            # rank death) replay cleanly and keep dt unless asked.
            if kind in ("divergence", "cfl") or self.reduce_dt_on_fault:
                self._reduce_dt(attempts)
            delay = self.backoff * self.backoff_base ** (attempts - 1)
            if delay > 0:
                self.sleep(delay)
            self.events.record(
                "retry",
                step=sim.step_count,
                time=sim.time,
                detail=f"attempt {attempts}/{self.max_retries} (backoff {delay:.3g}s)",
                attempt=attempts,
                backoff=delay,
            )

        result = ResilientResult(
            results=list(sim.history[start_hist:]),
            events=self.events,
            retries=retries_total,
            checkpoints=checkpoints,
        )
        self.events.record(
            "complete",
            step=sim.step_count,
            time=sim.time,
            detail=f"run complete with {retries_total} retries",
        )
        return result

    def _checked_len(self, start_hist: int) -> int:
        """History length already covered by health checks.

        Everything up to the newest checkpoint passed its check; only the
        steps after it are new.
        """
        latest = self.ring.latest
        if latest is None:
            return start_hist
        n_hist, _ = self._lens.get(latest.step, (start_hist, 0))
        return n_hist
