"""Rollback-and-retry execution: the one recovery loop.

``Simulation.run`` is fail-fast: a NaN anywhere raises and the run is
lost.  At production scale that is unacceptable -- the paper's campaign
survives weeks of wall time only because failed intervals are replayed
from checkpoints.  :class:`ResilientRunner` reproduces that operational
loop for a :class:`~repro.core.simulation.Simulation`, serial or on
simulated ranks (:func:`~repro.core.simulation.distribute`):

1. advance the app one *segment* (``checkpoint_interval`` steps);
2. apply any scheduled injected faults (testing hook);
3. take the app's ``state_shards()`` (one per rank) and run the
   :class:`~repro.resilience.health.HealthCheck` over them and the new
   step results;
4. healthy: commit the shards as one epoch of a
   :class:`~repro.resilience.distributed.shards.ShardedCheckpointStore`
   and continue; unhealthy, or the segment raised the divergence guard, a
   rank failure or a hardened-channel error: roll back to the newest valid
   epoch through ``restore_shards``, reduce ``dt`` after a divergence, and
   retry -- up to ``max_retries`` consecutive attempts per incident.

Every decision lands in the structured :class:`EventLog` returned with
the results; the log is built on the app's ``tracer``, so each decision is
also a ``resilience.<kind>`` event in the run's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.reliable import CollectiveIntegrityError, CommTimeoutError
from repro.resilience.distributed.shards import ShardedCheckpointStore
from repro.resilience.events import EventLog
from repro.resilience.faults import FaultInjector, RankFailedError
from repro.resilience.health import HealthCheck

__all__ = ["ResilientRunner", "ResilientResult", "RetryBudgetExceededError"]

#: The failures a segment may raise that a rollback recovers from.
RECOVERABLE = (
    FloatingPointError,
    RankFailedError,
    CommTimeoutError,
    CollectiveIntegrityError,
)


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
    """Run an app to completion through faults.

    Parameters
    ----------
    sim:
        The app: a :class:`~repro.core.simulation.Simulation` (or an
        equivalent exposing its ``run(n_steps=...)``, ``step_count``,
        ``time``, ``dt``, ``adaptive``, ``config``, ``tracer``, ``history``,
        ``stat_samples``, ``state_shards()`` and ``restore_shards(shards)``).
    store:
        Checkpoint storage, one epoch of ``state_shards()`` per checkpoint
        keyed by ``sim.step_count``; defaults to an in-memory store of
        capacity 3.  A fresh store over the same directory restarts a
        killed run.
    checkpoint_interval:
        Steps per segment between checkpoints/health checks.
    health:
        The :class:`HealthCheck` consulted after each segment; defaults to
        a finite-shard scan with a CFL ceiling of 10.
    max_retries:
        Consecutive failed attempts allowed per incident before
        :class:`RetryBudgetExceededError`; a healthy segment resets the
        counter.
    dt_factor:
        Step-size reduction applied when retrying after a *divergence*
        or *CFL-ceiling* failure; transient faults (SDC, rank death, a
        hardened-channel error) replay at the checkpoint's ``dt``.
        Adaptive runs also scale their CFL target and ``dt_max``, since
        the controller would otherwise regrow ``dt`` immediately.
    fault_injector:
        Optional :class:`FaultInjector` whose scheduled SDC faults are
        applied between segments (each fires once -- the transient model).
    """

    def __init__(
        self,
        sim,
        store: ShardedCheckpointStore | None = None,
        checkpoint_interval: int = 10,
        health: HealthCheck | None = None,
        max_retries: int = 3,
        dt_factor: float = 0.5,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.sim = sim
        self.store = store if store is not None else ShardedCheckpointStore(capacity=3)
        self.checkpoint_interval = checkpoint_interval
        self.health = health if health is not None else HealthCheck()
        self.events = EventLog(sim.tracer)
        self.max_retries = max_retries
        self.dt_factor = dt_factor
        self.fault_injector = fault_injector
        # History/statistics lengths at each checkpointed step, so a
        # rollback can truncate the records the checkpoint itself does not
        # capture and the realized history stays consistent.
        self._lens: dict[int, tuple[int, int]] = {}

    # -- checkpointing ----------------------------------------------------------

    def _save(self, shards: list) -> None:
        sim = self.sim
        self.store.save_epoch(sim.step_count, shards)
        self._lens[sim.step_count] = (len(sim.history), len(sim.stat_samples))
        self.events.record("checkpoint", step=sim.step_count, time=sim.time, detail="epoch saved")

    def _rollback(self) -> None:
        sim = self.sim
        failed_step = sim.step_count
        epoch, shards, skipped = self.store.restore_latest()
        sim.restore_shards(shards)
        for bad in skipped:
            self.events.record(
                "corrupt_checkpoint",
                step=bad,
                detail=f"epoch {bad} failed verification; falling back",
            )
        n_hist, n_stats = self._lens.get(epoch, (0, 0))
        del sim.history[n_hist:]
        del sim.stat_samples[n_stats:]
        self.events.record(
            "rollback",
            step=epoch,
            time=sim.time,
            detail=f"restored checkpoint at step {epoch}",
            skipped=skipped,
            steps_replayed=failed_step - epoch,
        )

    def _reduce_dt(self, power: int = 1) -> None:
        sim = self.sim
        old_dt = sim.dt
        if sim.adaptive:
            # The config survives rollback, so one scaling per failed
            # attempt compounds naturally across consecutive retries.
            cfg = sim.config
            cfg.adaptive_cfl *= self.dt_factor
            cfg.dt_max = max(cfg.dt_max * self.dt_factor, cfg.dt_min)
        # Rollback restored the *checkpoint's* dt, so consecutive retries
        # of the same incident must compound: attempt n runs at
        # dt * dt_factor**n, not the same reduced dt every time.
        new_dt = max(sim.dt * self.dt_factor**power, sim.config.dt_min)
        sim.dt = new_dt
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
        self, n_steps: int | None = None, end_time: float | None = None, **run_kwargs
    ) -> ResilientResult:
        """Advance until ``n_steps`` more steps or ``end_time``, surviving faults.

        ``run_kwargs`` (``callback_interval``, ...) pass through to the
        app's ``run``, as does ``end_time`` when given.
        """
        if n_steps is None and end_time is None:
            raise ValueError("give n_steps or end_time")
        if end_time is not None:
            run_kwargs["end_time"] = end_time
        sim = self.sim
        start_hist = len(sim.history)
        target_step = sim.step_count + n_steps if n_steps is not None else None
        attempts = 0
        retries_total = 0
        checkpoints = 0
        # Baseline: rollback works even before the first segment.
        self._save(sim.state_shards())

        while True:
            if target_step is not None and sim.step_count >= target_step:
                break
            if end_time is not None and sim.time >= end_time - 1e-12:
                break
            seg = self.checkpoint_interval
            if target_step is not None:
                seg = min(seg, target_step - sim.step_count)

            try:
                sim.run(n_steps=seg, **run_kwargs)
                if self.fault_injector is not None:
                    for ev in self.fault_injector.apply_field_faults(sim):
                        self.events.record(
                            "fault",
                            step=sim.step_count,
                            time=sim.time,
                            detail=ev.detail,
                            **ev.data,
                        )
                # The shards are checked before they are committed, so no
                # epoch ever holds a non-finite value.
                shards = sim.state_shards()
                issues = self.health.check(
                    shards, sim.history[self._checked_len(start_hist):]
                )
            except RECOVERABLE as exc:
                cause, message = type(exc).__name__, str(exc)
                rank = int(getattr(exc, "rank", -1))
            else:
                if not issues:
                    attempts = 0
                    self._save(shards)
                    checkpoints += 1
                    continue
                cause, message = issues[0].kind, "; ".join(i.message for i in issues)
                rank = -1

            self.events.record(
                "fault_detected",
                step=sim.step_count,
                time=sim.time,
                detail=message,
                cause=cause,
                rank=rank,
            )
            attempts += 1
            retries_total += 1
            if attempts > self.max_retries:
                self.events.record(
                    "retry_budget",
                    step=sim.step_count,
                    time=sim.time,
                    detail=f"retry budget exhausted: {message}",
                    cause=cause,
                    attempts=attempts - 1,
                )
                raise RetryBudgetExceededError(
                    f"giving up after {attempts - 1} retries: {message}", self.events
                )
            self._rollback()
            # Divergence and CFL-ceiling failures are the "dt too large"
            # class: replaying them at the same dt fails deterministically,
            # so the retry must shrink the step.  Transient faults (SDC,
            # rank death, channel errors) replay cleanly and keep dt.
            if cause in ("FloatingPointError", "cfl"):
                self._reduce_dt(attempts)
            self.events.record(
                "retry",
                step=sim.step_count,
                time=sim.time,
                detail=f"attempt {attempts}/{self.max_retries}",
                attempt=attempts,
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
        latest = self.store.latest
        if latest is None:
            return start_hist
        n_hist, _ = self._lens.get(latest, (start_hist, 0))
        return n_hist
