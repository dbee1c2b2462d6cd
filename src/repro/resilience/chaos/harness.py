"""The chaos harness: run scenario campaigns, measure survival and MTTR.

For each :class:`~repro.resilience.chaos.scenarios.ChaosScenario` the
harness runs the reference workload twice -- once fault-free (cached per
configuration) and once with the scenario's faults armed -- and compares
the final Nusselt proxy.  A scenario *survives* when the faulted run
completes every step without an unhandled exception, performs at least
the expected number of recoveries, and lands within tolerance of the
fault-free functional.

Recovery cost is reported as *steps replayed*: the deterministic
time-to-repair of a rollback system (wall-clock MTTR would be noise at
this scale; replayed work is the quantity the checkpoint-interval
trade-off controls, and it is bit-reproducible).

Observability: every scenario runs under a ``chaos.scenario`` span,
counters and histograms land in the harness metrics registry
(``chaos.survived``, ``chaos.steps_replayed``, ...), and a scenario that
fails dumps its flight-recorder ring -- fed by the recovery event stream
-- as a post-mortem bundle.  Each result also embeds the injector's
replay log, so any campaign entry can be reproduced in isolation with
:meth:`~repro.resilience.faults.FaultInjector.from_replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.comm.reliable import RetryPolicy
from repro.observability.fleet.flight import FlightRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.resilience.chaos.scenarios import ChaosScenario, default_campaign
from repro.resilience.distributed.recovery import WorldRecovery
from repro.resilience.distributed.shards import ShardedCheckpointStore
from repro.resilience.distributed.workload import DistributedThermalWorkload
from repro.resilience.faults import FaultInjector

__all__ = ["ChaosHarness", "ScenarioResult", "CampaignResult"]

#: Default |nu_faulted - nu_free| bar: recovery restores committed state
#: bit-for-bit and the reductions are rank-order deterministic, so even
#: shrink recoveries land at round-off; the bar leaves headroom only for
#: the repartitioned reduction order.
DEFAULT_TOL = 1.0e-8


@dataclass
class ScenarioResult:
    """Outcome of one scenario run (one row of the campaign report)."""

    name: str
    survived: bool
    steps: int
    nu_free: float
    nu_faulted: float
    nu_error: float
    recoveries: int
    steps_replayed: int
    faults_fired: int
    retransmissions: int
    duplicates: int
    timeouts: int
    integrity_failures: int
    final_world_size: int
    fault_kinds: tuple[str, ...] = ()
    error: str = ""
    replay: dict = field(default_factory=dict)
    incidents: list[dict] = field(default_factory=list)

    @property
    def mttr_steps(self) -> float:
        """Mean steps replayed per recovery (0 when nothing rolled back)."""
        return self.steps_replayed / self.recoveries if self.recoveries else 0.0


@dataclass
class CampaignResult:
    """All scenario rows plus campaign-level aggregates."""

    seed: int
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def survived(self) -> int:
        return sum(1 for r in self.results if r.survived)

    @property
    def failed(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.survived]

    @property
    def all_survived(self) -> bool:
        return not self.failed

    @property
    def total_recoveries(self) -> int:
        return sum(r.recoveries for r in self.results)

    @property
    def total_steps_replayed(self) -> int:
        return sum(r.steps_replayed for r in self.results)

    @property
    def mttr_steps(self) -> float:
        """Campaign MTTR: mean steps replayed per recovery incident."""
        n = self.total_recoveries
        return self.total_steps_replayed / n if n else 0.0


class ChaosHarness:
    """Runs chaos campaigns over the distributed thermal workload.

    Parameters
    ----------
    seed:
        Campaign master seed; scenario ``i`` gets injector seed
        ``seed + i`` and the workload initial condition uses ``seed``
        (identical between the fault-free baseline and the faulted run).
    shape, order, nranks, n_steps:
        Workload defaults; scenarios may override ``nranks``/``n_steps``.
    tol:
        Survival bar on ``|nu_faulted - nu_free|``.
    flight_dir:
        When set, a failing scenario dumps its flight-recorder ring as a
        JSONL bundle into this directory (the CI artifact on red).
    tracer, metrics:
        Observability sinks; fresh ones are created when omitted.
    """

    def __init__(
        self,
        seed: int = 2026,
        shape: tuple[int, int, int] = (2, 2, 2),
        order: int = 4,
        nranks: int = 4,
        n_steps: int = 6,
        checkpoint_interval: int = 2,
        tol: float = DEFAULT_TOL,
        flight_dir: "Path | str | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.seed = seed
        self.shape = shape
        self.order = order
        self.nranks = nranks
        self.n_steps = n_steps
        self.checkpoint_interval = checkpoint_interval
        self.tol = tol
        self.flight_dir = Path(flight_dir) if flight_dir is not None else None
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._baselines: dict[tuple, float] = {}

    # -- baselines ---------------------------------------------------------------

    def _baseline_nu(self, scenario: ChaosScenario, n_steps: int) -> float:
        """Fault-free final nu for a configuration (cached)."""
        key = (
            scenario.nranks,
            n_steps,
            scenario.shape,
            scenario.order,
        )
        if key not in self._baselines:
            w = self._workload(scenario=scenario, nranks=scenario.nranks)
            self._baselines[key] = w.run(n_steps).nu_final
        return self._baselines[key]

    def _workload(
        self, nranks: int, scenario: ChaosScenario | None = None, **kwargs: Any
    ) -> DistributedThermalWorkload:
        shape, order = self.shape, self.order
        if scenario is not None:
            shape = scenario.shape if scenario.shape is not None else shape
            order = scenario.order if scenario.order is not None else order
        return DistributedThermalWorkload(
            shape=shape,
            order=order,
            nranks=nranks,
            checkpoint_interval=self.checkpoint_interval,
            seed=self.seed,
            **kwargs,
        )

    # -- one scenario ------------------------------------------------------------

    def run_scenario(self, scenario: ChaosScenario, index: int = 0) -> ScenarioResult:
        """Run one scenario against its fault-free baseline."""
        n_steps = scenario.n_steps
        nu_free = self._baseline_nu(scenario, n_steps)
        injector = FaultInjector(
            seed=self.seed + index,
            schedule=list(scenario.schedule),
            drop_rate=scenario.drop_rate,
            corrupt_rate=scenario.corrupt_rate,
            delay_rate=scenario.delay_rate,
        )
        retry = (
            RetryPolicy(max_retries=scenario.max_retries, seed=self.seed + index)
            if scenario.retry
            else None
        )
        flight = FlightRecorder(capacity=32, out_dir=self.flight_dir)
        store = ShardedCheckpointStore()
        recovery = WorldRecovery(
            store, policy=scenario.policy, max_recoveries=8, flight=flight
        )
        workload = self._workload(
            nranks=scenario.nranks,
            scenario=scenario,
            store=store,
            recovery=recovery,
            fault_injector=injector,
            retry=retry,
            verify_collectives=scenario.verify_collectives,
            flight=flight,
        )

        error = ""
        with self.tracer.span(
            "chaos.scenario", scenario=scenario.name, policy=scenario.policy
        ):
            try:
                run = workload.run(n_steps)
            except Exception as exc:  # chaos runs must never take the harness down
                error = f"{type(exc).__name__}: {exc}"
                run = workload.result()

        completed = not error and run.steps >= n_steps
        nu_error = abs(run.nu_final - nu_free)
        survived = (
            completed
            and nu_error <= self.tol
            and run.recoveries >= scenario.expect_recoveries
        )
        result = ScenarioResult(
            name=scenario.name,
            survived=survived,
            steps=run.steps,
            nu_free=nu_free,
            nu_faulted=run.nu_final,
            nu_error=nu_error,
            recoveries=run.recoveries,
            steps_replayed=run.steps_replayed,
            faults_fired=len(injector.events),
            retransmissions=run.stats.retransmissions,
            duplicates=run.stats.duplicates,
            timeouts=run.stats.timeouts,
            integrity_failures=run.stats.integrity_failures,
            final_world_size=run.world_size,
            fault_kinds=scenario.fault_kinds(),
            error=error,
            replay=injector.export_replay(),
            incidents=list(run.incidents),
        )
        self._record(result, flight)
        return result

    def _record(self, result: ScenarioResult, flight: FlightRecorder) -> None:
        m = self.metrics
        m.counter("chaos.scenarios").inc()
        m.counter("chaos.survived" if result.survived else "chaos.failed").inc()
        m.counter("chaos.recoveries").inc(result.recoveries)
        m.counter("chaos.faults_fired").inc(result.faults_fired)
        m.histogram("chaos.steps_replayed").record(float(result.steps_replayed))
        m.histogram("chaos.nu_error").record(result.nu_error)
        if not result.survived and self.flight_dir is not None:
            flight.dump(reason=f"chaos_{result.name}")

    # -- campaigns ---------------------------------------------------------------

    def run_campaign(
        self, scenarios: list[ChaosScenario] | None = None
    ) -> CampaignResult:
        """Run a scenario list (default: the committed campaign) in order."""
        if scenarios is None:
            scenarios = default_campaign()
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique within a campaign")
        campaign = CampaignResult(seed=self.seed)
        with self.tracer.span("chaos.campaign", scenarios=len(scenarios)):
            for i, scenario in enumerate(scenarios):
                campaign.results.append(self.run_scenario(scenario, index=i))
        return campaign
