"""The chaos harness: run scenario campaigns, measure survival and replay.

For each :class:`~repro.resilience.chaos.scenarios.ChaosScenario` the
harness runs the real Navier--Stokes step -- a
:class:`~repro.core.simulation.Simulation` of a small RBC box, partitioned
over the scenario's simulated ranks by
:func:`~repro.core.simulation.distribute` -- twice: once fault-free (cached
per configuration) and once with the scenario's faults armed, and compares
the final volume Nusselt number.  A scenario *survives* when the faulted
run completes every step without an unhandled exception, performs at
least the expected number of recoveries, and lands within tolerance of
the fault-free Nu.

Recovery cost is reported as *steps replayed*: the deterministic
time-to-repair of a rollback system (wall-clock repair time would be
noise at this scale; replayed work is the quantity the
checkpoint-interval trade-off controls, and it is bit-reproducible).

Recovery is the one loop, :class:`~repro.resilience.runner.ResilientRunner`,
wrapped around the simulation: it commits an epoch of per-rank shards
every ``checkpoint_interval`` steps and rolls back, by warm replacement of
the rank world, on a rank death or a hardened-channel error.  The report's
incidents are read off the runner's ``fault_detected`` / ``rollback``
events.

Observability: every scenario runs under a ``chaos.scenario`` span of
the harness tracer, and the runner's event log records onto that tracer,
so each ``resilience.*`` event (fault detected, rollback, retry) nests
inside the span of the scenario that raised it; write the tracer out with
:func:`~repro.observability.export.write_chrome_trace` for a post-mortem.
A scenario's counts are the fields of its :class:`ScenarioResult`
(campaign totals are properties of :class:`CampaignResult`).  Each result
also embeds the injector's replay log, so any campaign entry can be
reproduced in isolation with
:meth:`~repro.resilience.faults.FaultInjector.from_replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.comm.reliable import RetryPolicy
from repro.core.rbc import rbc_box_case
from repro.core.simulation import Simulation, distribute
from repro.core.statistics import compute_nusselt
from repro.observability.tracer import Tracer
from repro.resilience.chaos.scenarios import ChaosScenario, default_campaign
from repro.resilience.faults import FaultInjector
from repro.resilience.runner import ResilientRunner

__all__ = ["ChaosHarness", "ScenarioResult", "CampaignResult"]

#: Default |nu_faulted - nu_free| bar: recovery restores committed state
#: bit-for-bit and the reductions are rank-order deterministic, so a
#: recovered run lands on the fault-free answer; the bar is headroom.
DEFAULT_TOL = 1.0e-8

#: Rayleigh number and time step of every scenario's RBC box.
RAYLEIGH = 1.0e4
DT = 0.02


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
    fault_kinds: tuple[str, ...] = ()
    error: str = ""
    replay: dict = field(default_factory=dict)
    incidents: list[dict] = field(default_factory=list)


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


class ChaosHarness:
    """Runs chaos campaigns over the partitioned RBC simulation.

    Parameters
    ----------
    seed:
        Campaign master seed; scenario ``i`` gets injector seed
        ``seed + i``.  The initial condition is the case's deterministic
        perturbation, the same in the fault-free and the faulted run.
    shape, order:
        Default box (elements per axis) and polynomial order (``lx =
        order + 1``); scenarios may override them.
    checkpoint_interval:
        Steps between committed epochs of every run.
    tol:
        Survival bar on ``|nu_faulted - nu_free|``.
    tracer:
        Receives the ``chaos.*`` spans and, nested in them, each scenario's
        ``resilience.*`` events; a fresh one is created when omitted.
    """

    def __init__(
        self,
        seed: int = 2026,
        shape: tuple[int, int, int] = (2, 2, 2),
        order: int = 4,
        checkpoint_interval: int = 2,
        tol: float = DEFAULT_TOL,
        tracer: Tracer | None = None,
    ) -> None:
        self.seed = seed
        self.shape = shape
        self.order = order
        self.checkpoint_interval = checkpoint_interval
        self.tol = tol
        self.tracer = tracer if tracer is not None else Tracer()
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
            sim = self._simulation(scenario)
            sim.run(n_steps=n_steps)
            self._baselines[key] = _nusselt(sim)
        return self._baselines[key]

    def _simulation(
        self, scenario: ChaosScenario, tracer: Tracer | None = None, **world: Any
    ) -> Simulation:
        """The scenario's box on its ranks; ``world`` goes to ``distribute``."""
        shape = scenario.shape if scenario.shape is not None else self.shape
        order = scenario.order if scenario.order is not None else self.order
        sim = Simulation(rbc_box_case(RAYLEIGH, n=shape, lx=order + 1, dt=DT), tracer=tracer)
        distribute(sim, scenario.nranks, **world)
        return sim

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
        retry = RetryPolicy(max_retries=scenario.max_retries) if scenario.retry else None
        sim = self._simulation(
            scenario,
            tracer=self.tracer,
            fault_injector=injector,
            retry=retry,
            verify_collectives=scenario.verify_collectives,
        )
        runner = ResilientRunner(sim, checkpoint_interval=self.checkpoint_interval)

        error = ""
        with self.tracer.span("chaos.scenario", scenario=scenario.name):
            try:
                runner.run(n_steps=n_steps)
            except Exception as exc:  # chaos runs must never take the harness down
                error = f"{type(exc).__name__}: {exc}"

        incidents = [
            {
                "cause": detected.data["cause"],
                "detected_step": detected.step,
                "epoch": rollback.step,
                "steps_replayed": rollback.data["steps_replayed"],
                "failed_rank": detected.data["rank"],
            }
            for detected, rollback in zip(
                runner.events.of_kind("fault_detected"), runner.events.of_kind("rollback")
            )
        ]
        nu_faulted = _nusselt(sim)
        nu_error = abs(nu_faulted - nu_free)
        survived = (
            not error
            and sim.step_count >= n_steps
            and nu_error <= self.tol
            and len(incidents) >= scenario.expect_recoveries
        )
        # Totals over every world the run lived in: a warm replacement
        # carries the old world's counters on.
        traffic = sim.space.gs.world.stats
        return ScenarioResult(
            name=scenario.name,
            survived=survived,
            steps=sim.step_count,
            nu_free=nu_free,
            nu_faulted=nu_faulted,
            nu_error=nu_error,
            recoveries=len(incidents),
            steps_replayed=sum(i["steps_replayed"] for i in incidents),
            faults_fired=len(injector.events),
            retransmissions=traffic.retransmissions,
            duplicates=traffic.duplicates,
            timeouts=traffic.timeouts,
            integrity_failures=traffic.integrity_failures,
            fault_kinds=scenario.fault_kinds(),
            error=error,
            replay=injector.export_replay(),
            incidents=incidents,
        )

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


def _nusselt(sim: Simulation) -> float:
    """The run's volume Nusselt number at its current state."""
    cfg = sim.config
    return compute_nusselt(
        sim.space, sim.velocity[2], sim.temperature, cfg.rayleigh, cfg.prandtl
    ).volume
