"""The simulation driver: couples fluid and scalar, runs the time loop.

Responsibilities mirror Neko's ``case``/``simulation`` objects: hold the
function space and both schemes, apply the Boussinesq coupling (buoyancy
``+T e_z`` extrapolated together with advection), keep per-region wall-time
accounting, evaluate statistics, and invoke user callbacks (the in-situ
hooks: compression, streaming POD, field output).
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Mapping
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np

from repro.core.case import CaseConfig
from repro.core.fluid import FluidScheme
from repro.core.output import CheckpointCorruptError
from repro.core.overlap import step_executor
from repro.core.scalar import ScalarScheme
from repro.core.statistics import NusseltNumbers, compute_nusselt, reynolds_number
from repro.core.timers import RegionTimers
from repro.observability.phases import (
    PHASE_GATHER_SCATTER,
    PHASE_INSITU,
    PHASE_STATISTICS,
    PHASE_STEP,
)
from repro.observability.tracer import NULL_TRACER
from repro.sem.space import FunctionSpace
from repro.timeint.bdf_ext import TimeScheme
from repro.timeint.cfl import courant_number

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

    def __init__(self, config: CaseConfig, tracer=None) -> None:
        config.validate()
        self.config = config
        self.space = FunctionSpace(config.mesh, config.lx)
        # Observability: the tracer defaults to the no-op implementation
        # (uninstrumented runs stay on the pre-observability fast path).
        # Span names follow the Fig. 4 phase taxonomy: advection, pressure,
        # velocity, temperature, gather_scatter, insitu (see EXPERIMENTS.md).
        # Counts stay on the objects that keep them: ``history``, the
        # schemes' solver monitors, ``space.gs`` and the operator cache.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.timers = RegionTimers(tracer=self.tracer)
        # ``dt`` is the one step size: adaptation, restarts and retries set
        # it, and each step hands it to the scheme and both integrators.
        self.adaptive = config.adaptive_cfl is not None
        self.scheme = TimeScheme(config.time_order)
        self.dt = config.dt

        self.fluid = FluidScheme(self.space, config, self.scheme, self.timers)
        self.scalar = ScalarScheme(
            self.space, config, self.scheme, self.timers, dealiaser=self.fluid.dealiaser
        )
        # Runs the temperature step and one velocity solve beside the rest
        # of each step; a worker thread only for fields large enough to gain
        # (repro.core.overlap), shut down when this simulation is collected.
        self.executor = step_executor(int(np.prod(self.space.shape)), self.tracer)
        weakref.finalize(self, self.executor.shutdown)
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

    # -- checkpoint state ------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The complete multistep state as an array mapping, for exact restart."""
        arrays: dict[str, np.ndarray] = {}
        for i in range(3):
            arrays[f"u{i}"] = self.fluid.u[i]
            arrays[f"v{i}"] = self.fluid.v[i]
            arrays[f"w{i}"] = self.fluid.w[i]
            arrays[f"t{i}"] = self.scalar.t_hist[i]
        for i, f in enumerate(self.fluid.f_hist):
            arrays[f"fx{i}"], arrays[f"fy{i}"], arrays[f"fz{i}"] = f
        for i, f in enumerate(self.scalar.f_hist):
            arrays[f"ft{i}"] = f
        if self.fluid.pressure_projection is not None:
            arrays.update(self.fluid.pressure_projection.state_arrays())
        arrays.update(
            pressure=self.fluid.p,
            n_fluid_hist=np.asarray(len(self.fluid.f_hist)),
            n_scalar_hist=np.asarray(len(self.scalar.f_hist)),
            time=np.asarray(self.time),
            dt=np.asarray(self.dt),
            last_cfl=np.asarray(self.last_cfl if self.last_cfl is not None else [-1.0, -1.0]),
            step_count=np.asarray(self.step_count),
            scheme_steps=np.asarray(self.scheme.step_count),
            scheme_dts=np.asarray(self.scheme.dts, dtype=np.float64),
        )
        return arrays

    def load_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore the state saved by :meth:`state_arrays`.

        Every entry is read before any state is written: a checkpoint that
        lacks one raises :class:`CheckpointCorruptError` and leaves the
        simulation as it was.
        """
        fluid, scalar = self.fluid, self.scalar
        try:
            levels = [[arrays[f"{c}{i}"] for i in range(3)] for c in "uvwt"]
            pressure = arrays["pressure"].copy()
            f_fluid = [
                (arrays[f"fx{i}"].copy(), arrays[f"fy{i}"].copy(), arrays[f"fz{i}"].copy())
                for i in range(int(arrays["n_fluid_hist"]))
            ]
            f_scalar = [arrays[f"ft{i}"].copy() for i in range(int(arrays["n_scalar_hist"]))]
            sim_time, step_count, dt = arrays["time"], arrays["step_count"], arrays["dt"]
            cfl, dt_last = (float(v) for v in arrays["last_cfl"])
            scheme_steps, scheme_dts = arrays["scheme_steps"], arrays["scheme_dts"]
            # Reads its whole basis before it replaces the stored one.
            if fluid.pressure_projection is not None:
                fluid.pressure_projection.load_state(arrays)
        except KeyError as exc:
            raise CheckpointCorruptError(f"checkpoint missing entry {exc}") from exc
        for hist, saved in zip((fluid.u, fluid.v, fluid.w, scalar.t_hist), levels):
            for level, value in zip(hist, saved):
                level[:] = value
        fluid.p, fluid.f_hist, scalar.f_hist = pressure, f_fluid, f_scalar
        self.time = float(sim_time)
        self.step_count = int(step_count)
        self.dt = float(dt)
        self.last_cfl = None if dt_last < 0 else (cfl, dt_last)
        self.scheme.step_count = int(scheme_steps)
        self.scheme.dts = [float(v) for v in np.atleast_1d(scheme_dts)]

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

    def step(self) -> StepResult:
        """Advance the coupled system one time step."""
        if self.adaptive:
            self._adapt_dt()
        self.scheme.set_step(self.dt)
        self.fluid.set_dt(self.dt)
        self.scalar.set_dt(self.dt)

        gs = self.space.gs
        gs_calls, gs_bytes, gs_seconds = gs.calls, gs.bytes_moved, gs.seconds
        with self.tracer.span(PHASE_STEP, step=self.step_count + 1, sim_time=self.time):
            b = self.space.coef.mass
            zeros = np.zeros(self.space.shape)
            # Buoyancy from the *current* temperature (explicit coupling).
            buoy = (zeros, zeros, b * self.scalar.temperature)

            c_fine = self.fluid.fine_velocity()
            # The temperature step reads u^n, c_fine and nothing the fluid
            # step writes: it runs beside it, and is joined before the step
            # goes on, also when the fluid step raises.
            scalar_task = self.executor.submit(self.scalar.step, self.velocity, c_fine)
            try:
                mons = self.fluid.step(buoy, c_fine=c_fine, executor=self.executor)
            finally:
                wait([scalar_task])
            scalar_task.result()

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
                # Timestamped counter samples: these render as lanes ("C"
                # events) under the flame chart, putting the CFL story on
                # the same timeline as the phases.
                self.tracer.sample("sim.cfl", result.cfl)
                self.tracer.sample("sim.dt", result.dt)
        self.history.append(result)
        self.last_cfl = (result.cfl, result.dt)
        return result

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
                # Into the trace *before* raising: the exception may be
                # swallowed by a resilient driver that rolls back.
                self.tracer.event(
                    "sim.divergence", step=res.step, quantity=quantity, detail=message
                )
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
