"""The simulation driver: couples fluid and scalar, runs the time loop.

Responsibilities mirror Neko's ``case``/``simulation`` objects: hold the
function space and both schemes, apply the Boussinesq coupling (buoyancy
``+T e_z`` extrapolated together with advection), keep per-region wall-time
accounting, evaluate statistics, and invoke user callbacks (the in-situ
hooks: compression, streaming POD, field output).
"""

from __future__ import annotations

import time as _time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.case import CaseConfig
from repro.core.fluid import FluidScheme
from repro.core.scalar import ScalarScheme
from repro.core.statistics import NusseltNumbers, compute_nusselt, reynolds_number
from repro.core.timers import RegionTimers
from repro.observability.metrics import MetricsRegistry
from repro.observability.phases import (
    PHASE_GATHER_SCATTER,
    PHASE_INSITU,
    PHASE_STATISTICS,
    PHASE_STEP,
)
from repro.observability.tracer import NULL_TRACER
from repro.precond.cache import global_cache
from repro.sem.space import FunctionSpace
from repro.timeint.bdf_ext import TimeScheme
from repro.timeint.cfl import courant_number
from repro.timeint.variable import VariableTimeScheme

__all__ = ["Simulation", "StepResult"]


@dataclass
class StepResult:
    """Summary of one time step."""

    step: int
    time: float
    cfl: float
    pressure_iterations: int
    velocity_iterations: int
    temperature_iterations: int
    kinetic_energy: float
    divergence: float
    dt: float = 0.0


@dataclass
class StatSample:
    """One statistics sample along the run."""

    time: float
    nusselt: NusseltNumbers
    reynolds: float
    kinetic_energy: float


class Simulation:
    """A Boussinesq RBC simulation assembled from a :class:`CaseConfig`."""

    def __init__(
        self,
        config: CaseConfig,
        tracer=None,
        metrics=None,
        flight=None,
    ) -> None:
        config.validate()
        self.config = config
        self.space = FunctionSpace(config.mesh, config.lx)
        # Observability: the tracer defaults to the no-op implementation
        # (uninstrumented runs stay on the pre-observability fast path);
        # the metrics registry is always live -- its per-step cost is a
        # handful of dict updates.  Span names follow the Fig. 4 phase
        # taxonomy: advection, pressure, velocity, temperature,
        # gather_scatter, insitu (see EXPERIMENTS.md).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Optional crash flight recorder (repro.observability.fleet.flight);
        # no-cost when absent.
        self.flight = flight
        self.timers = RegionTimers(tracer=self.tracer)
        self.adaptive = config.adaptive_cfl is not None
        self.scheme = (
            VariableTimeScheme(config.time_order)
            if self.adaptive
            else TimeScheme(config.time_order)
        )
        self.dt = config.dt

        self.fluid = FluidScheme(self.space, config, self.scheme, self.timers)
        self.scalar = ScalarScheme(
            self.space, config, self.scheme, self.timers, dealiaser=self.fluid.dealiaser
        )
        self.time = 0.0
        self.step_count = 0
        # (cfl, dt) of the last completed step; drives adaptation and is
        # checkpointed so restarts reproduce the dt sequence exactly.
        self.last_cfl: tuple[float, float] | None = None
        self.callbacks: list[Callable[["Simulation"], None]] = []
        self.history: list[StepResult] = []
        self.stat_samples: list[StatSample] = []

        # Initial conditions.
        if config.initial_temperature is not None:
            self.scalar.set_temperature(self.space.interpolate(config.initial_temperature))
        if config.initial_velocity is not None:
            ux, uy, uz = config.initial_velocity(self.space.x, self.space.y, self.space.z)
            self.fluid.set_velocity(
                np.asarray(ux, dtype=np.float64) * np.ones(self.space.shape),
                np.asarray(uy, dtype=np.float64) * np.ones(self.space.shape),
                np.asarray(uz, dtype=np.float64) * np.ones(self.space.shape),
            )

        global_cache().attach_metrics(self.metrics)

    # -- accessors -------------------------------------------------------------

    @property
    def velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.fluid.u[0], self.fluid.v[0], self.fluid.w[0])

    @property
    def temperature(self) -> np.ndarray:
        return self.scalar.temperature

    @property
    def pressure(self) -> np.ndarray:
        return self.fluid.p

    # -- stepping ----------------------------------------------------------------

    def _adapt_dt(self) -> None:
        """Adjust the step size toward the target Courant number."""
        if self.last_cfl is None:
            return
        last_cfl, last_dt = self.last_cfl
        cfl_per_dt = last_cfl / last_dt if last_dt > 0 else 0.0
        if cfl_per_dt <= 0.0:
            new_dt = min(self.dt * 1.2, self.config.dt_max)
        else:
            ideal = self.config.adaptive_cfl / cfl_per_dt
            # Limit the change rate to keep the multistep history healthy.
            new_dt = float(np.clip(ideal, 0.75 * self.dt, 1.2 * self.dt))
            new_dt = float(np.clip(new_dt, self.config.dt_min, self.config.dt_max))
        self.dt = new_dt
        self.fluid.set_dt(new_dt)
        self.scalar.set_dt(new_dt)

    def step(self) -> StepResult:
        """Advance the coupled system one time step."""
        if self.adaptive:
            self._adapt_dt()
            self.scheme.set_step(self.dt)

        gs = self.space.gs
        gs_calls, gs_bytes, gs_seconds = gs.calls, gs.bytes_moved, gs.seconds
        t_step = _time.perf_counter()
        with self.tracer.span(PHASE_STEP, step=self.step_count + 1, sim_time=self.time):
            b = self.space.coef.mass
            zeros = np.zeros(self.space.shape)
            # Buoyancy from the *current* temperature (explicit coupling).
            buoy = (zeros, zeros, b * self.scalar.temperature)

            c_fine = self.fluid.fine_velocity()
            vel_now = self.velocity
            self.scalar.step(vel_now, c_fine=c_fine)
            mons = self.fluid.step(buoy, c_fine=c_fine)

            self.scheme.advance()
            self.step_count += 1
            self.time += self.dt

            ux, uy, uz = self.velocity
            result = StepResult(
                step=self.step_count,
                time=self.time,
                cfl=courant_number(self.space, ux, uy, uz, self.dt),
                dt=self.dt,
                pressure_iterations=mons["pressure"].iterations,
                velocity_iterations=max(
                    mons["velocity_x"].iterations,
                    mons["velocity_y"].iterations,
                    mons["velocity_z"].iterations,
                ),
                temperature_iterations=self.scalar.monitors["temperature"].iterations,
                kinetic_energy=self.fluid.kinetic_energy(),
                divergence=self.fluid.divergence_norm(),
            )
            if self.tracer.enabled:
                # Gather--scatter is accumulated across many tiny dssum
                # calls; surface the per-step total as an aggregate phase
                # span so the Fig. 4 taxonomy is complete in the trace.
                self.tracer.record_span(
                    PHASE_GATHER_SCATTER,
                    gs.seconds - gs_seconds,
                    counters={
                        "calls": gs.calls - gs_calls,
                        "bytes": gs.bytes_moved - gs_bytes,
                    },
                )
                # Timestamped counter samples: these render as metric
                # lanes ("C" events) under the flame chart, putting the
                # CFL/backlog story on the same timeline as the phases.
                self.tracer.sample("sim.cfl", result.cfl)
                self.tracer.sample("sim.dt", result.dt)
                if "insitu.queue_depth" in self.metrics:
                    depth = self.metrics.gauge("insitu.queue_depth").value
                    if np.isfinite(depth):
                        self.tracer.sample("insitu.queue_depth", depth)
        step_seconds = _time.perf_counter() - t_step
        self._record_step_metrics(result, step_seconds, gs_calls, gs_bytes, gs_seconds)
        self.history.append(result)
        self.last_cfl = (result.cfl, result.dt)
        return result

    def _record_step_metrics(
        self,
        result: StepResult,
        step_seconds: float,
        gs_calls: int,
        gs_bytes: int,
        gs_seconds: float,
    ) -> None:
        """Fold one step's measurements into the metrics registry."""
        # Runtime import: the bridge pulls repro.resilience, which imports
        # back into repro.core -- fine once everything is initialized,
        # circular at module-import time.
        from repro.observability.bridge import record_solver_monitor

        m = self.metrics
        m.counter("sim.steps").inc()
        m.histogram("sim.step_seconds").record(step_seconds)
        m.gauge("sim.cfl").set(result.cfl)
        m.gauge("sim.dt").set(result.dt)
        m.gauge("sim.kinetic_energy").set(result.kinetic_energy)
        m.gauge("sim.divergence").set(result.divergence)
        gs = self.space.gs
        m.counter("gs.calls").inc(gs.calls - gs_calls)
        m.counter("gs.bytes_moved").inc(gs.bytes_moved - gs_bytes)
        m.counter("gs.seconds").inc(gs.seconds - gs_seconds)
        for mon in (*self.fluid.monitors.values(), *self.scalar.monitors.values()):
            record_solver_monitor(mon, m)

    def run(
        self,
        n_steps: int | None = None,
        end_time: float | None = None,
        callback_interval: int = 0,
        stats_interval: int = 0,
        print_interval: int = 0,
    ) -> list[StepResult]:
        """Run the time loop until ``n_steps`` or ``end_time``.

        ``callback_interval`` / ``stats_interval`` control how often the
        registered in-situ callbacks fire and statistics are sampled.
        """
        if n_steps is None and end_time is None:
            raise ValueError("give n_steps or end_time")
        results = []
        while True:
            if n_steps is not None and len(results) >= n_steps:
                break
            if end_time is not None and self.time >= end_time - 1e-12:
                break
            res = self.step()
            results.append(res)
            if self.flight is not None:
                self.flight.record_step(self, res)
            if stats_interval and self.step_count % stats_interval == 0:
                with self.tracer.span(PHASE_STATISTICS, step=self.step_count):
                    self.sample_statistics()
            if callback_interval and self.step_count % callback_interval == 0:
                with self.tracer.span(PHASE_INSITU, step=self.step_count):
                    for cb in self.callbacks:
                        cb(self)
            if print_interval and self.step_count % print_interval == 0:
                print(
                    f"step {res.step:6d}  t={res.time:.4f}  CFL={res.cfl:.3f}  "
                    f"p-iters={res.pressure_iterations}  KE={res.kinetic_energy:.4e}"
                )
            quantity = self._nonfinite_quantity(res)
            if quantity is not None:
                message = (
                    f"simulation diverged at step {res.step} (t = {res.time:.4f}): "
                    f"{quantity} is not finite; CFL was {res.cfl:.2f} -- reduce dt"
                )
                if self.flight is not None:
                    # Dump the black box *before* raising: the exception may
                    # be swallowed by a resilient driver that rolls back.
                    self.flight.record_event(
                        "flight.divergence",
                        step=res.step,
                        time=res.time,
                        detail=message,
                        quantity=quantity,
                    )
                    self.flight.dump(reason="divergence")
                raise FloatingPointError(message)
        return results

    def _nonfinite_quantity(self, res: StepResult) -> str | None:
        """Name of the first non-finite monitored quantity, if any.

        Guards the kinetic energy, the divergence norm and the full
        temperature field: a NaN can enter through the scalar solve alone
        (buoyancy feeds it back one step later), so checking only the
        kinetic energy would report the blow-up a step late or not at all.
        """
        if not np.isfinite(res.kinetic_energy):
            return "kinetic energy"
        if not np.isfinite(res.divergence):
            return "divergence"
        if not np.all(np.isfinite(self.scalar.temperature)):
            return "temperature field"
        return None

    # -- statistics ----------------------------------------------------------------

    def sample_statistics(self) -> StatSample:
        """Evaluate and record the Nusselt/Reynolds sample at the current time."""
        ux, uy, uz = self.velocity
        nu = compute_nusselt(
            self.space, uz, self.temperature, self.config.rayleigh, self.config.prandtl
        )
        sample = StatSample(
            time=self.time,
            nusselt=nu,
            reynolds=reynolds_number(
                self.space, ux, uy, uz, self.config.rayleigh, self.config.prandtl
            ),
            kinetic_energy=self.fluid.kinetic_energy(),
        )
        self.stat_samples.append(sample)
        return sample

    def time_averaged_nusselt(self, discard_fraction: float = 0.5) -> NusseltNumbers:
        """Average the recorded Nusselt samples, discarding the transient."""
        if not self.stat_samples:
            raise RuntimeError("no statistics samples recorded; run with stats_interval")
        n0 = int(len(self.stat_samples) * discard_fraction)
        samples = self.stat_samples[n0:] or self.stat_samples[-1:]
        return NusseltNumbers(
            volume=float(np.mean([s.nusselt.volume for s in samples])),
            plate_bottom=float(np.mean([s.nusselt.plate_bottom for s in samples])),
            plate_top=float(np.mean([s.nusselt.plate_top for s in samples])),
            dissipation=float(np.mean([s.nusselt.dissipation for s in samples])),
        )
