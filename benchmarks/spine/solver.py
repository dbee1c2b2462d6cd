"""The three solver workloads: ``rbc_nu_p5``, ``rbc_cyl_p7``, ``scalar_transport_p7``.

They share the layers (``sem``, ``solvers``, ``timeint``, ``core``) and use
them differently, which is the point:

* ``rbc_nu_p5`` runs a box RBC case through onset, overshoot and
  relaxation until its four Nusselt estimators agree -- time to solution,
  with pressure GMRES+HSMG doing most of the work.
* ``rbc_cyl_p7`` is the paper's geometry at the paper's degree: deformed
  elements, wall-bounded gather--scatter, a velocity Helmholtz solve that
  matters.  A box-only or p5-only tuning that costs this path shows here.
* ``scalar_transport_p7`` advances the temperature alone in a frozen roll.
  No pressure solve, no preconditioner: dealiased advection and the
  Helmholtz/gather--scatter kernels do all the work, so a pressure-side
  change must leave it unmoved.

Seed 0 is the repo's deterministic perturbation.  Other seeds move the same
perturbation rigidly (a lateral shift in the periodic box, a rotation in the
cylinder), which changes the inputs without changing the physics, so every
seed reaches the same statistically steady state.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from benchmarks.spine import hostcal
from benchmarks.spine.loop import Loop, Tally, closed_loop, end_to_end, trace_overhead
from benchmarks.spine.spans import SpanTracer, aggregate
from benchmarks.spine.summary import median
from repro.compression import SpectralCompressor
from repro.core import Simulation, rbc_box_case, rbc_cylinder_case
from repro.core.rbc import conductive_profile, default_perturbation
from repro.core.scalar import ScalarScheme
from repro.insitu import CompressionProcessor, InSituPipeline, StreamingPOD
from repro.precond.cache import global_cache, reset_global_cache
from repro.sem.dealias import Dealiaser
from repro.sem.operators import ax_helmholtz, ax_poisson, physical_grad
from repro.sem.space import FunctionSpace
from repro.timeint.bdf_ext import TimeScheme

__all__ = ["WORKLOADS", "run"]

PERTURBATION = 0.1
COMPRESSION_ERROR_BOUND = 0.025

# rbc_nu_p5 acceptance (Kooij et al., arXiv:1802.09054: a run is resolved
# when independent Nu estimators agree).  Tolerances, not pinned digits, so
# the checks survive legitimate solver changes.
NU_WINDOW = (12.0, 20.0)
NU_VOLUME_SEED0 = 6.30
NU_VOLUME_TOLERANCE = 0.02
NU_BAND = (5.3, 7.3)
NU_ESTIMATOR_SPREAD = 0.05


@dataclass
class Step:
    """What the checks need to know about one time step."""

    pressure: int
    velocity: int
    temperature: int
    converged: bool
    finite: bool
    cfl: float


def _rigid_motion(seed: int, kind: str):
    """Seeded lateral motion of the perturbation; identity for seed 0."""
    if seed == 0:
        return lambda x, y: (x, y)
    rng = np.random.default_rng(seed)
    if kind == "shift":
        sx, sy = rng.uniform(0.0, 2.0, size=2)
        return lambda x, y: (x + sx, y + sy)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(angle), np.sin(angle)
    return lambda x, y: (c * x - s * y, s * x + c * y)


def _initial_temperature(seed: int, kind: str):
    move = _rigid_motion(seed, kind)
    perturb = default_perturbation(PERTURBATION)

    def t0(x, y, z):
        return conductive_profile(x, y, z) + perturb(*move(x, y), z)

    return t0


class SimulationCase:
    """A live :class:`Simulation` plus what the loop and the tracer need."""

    def __init__(self, config, stats_interval: int) -> None:
        self.sim = Simulation(config)
        self.space = self.sim.space
        self.dealiaser = self.sim.fluid.dealiaser
        self.hsmg = self.sim.fluid.hsmg
        self.phase_seconds = self.sim.timers.totals
        self.stats_interval = stats_interval

    def op(self) -> Step:
        res = self.sim.step()
        monitors = (*self.sim.fluid.monitors.values(), *self.sim.scalar.monitors.values())
        return Step(
            pressure=res.pressure_iterations,
            velocity=res.velocity_iterations,
            temperature=res.temperature_iterations,
            converged=all(m.converged for m in monitors),
            finite=bool(np.isfinite(res.kinetic_energy) and np.isfinite(res.divergence)),
            cfl=res.cfl,
        )

    def after_op(self, i: int) -> None:
        if self.stats_interval and (i + 1) % self.stats_interval == 0:
            self.sim.sample_statistics()

    def targets(self) -> list[tuple[object, str, str]]:
        sim, fluid = self.sim, self.sim.fluid
        out = [
            (fluid, "step", "core.fluid_step"),
            (sim.scalar, "step", "core.scalar_step"),
            (fluid, "fine_velocity", "core.fine_velocity"),
            (sim, "sample_statistics", "core.stats_sample"),
            (fluid.pressure_solver, "solve", "solvers.pressure_solve"),
            (fluid.pressure_solver, "amul", "solvers.pressure_amul"),
            (fluid.pressure_solver, "precond", "precond.hsmg"),
            (fluid.hsmg, "schwarz", "precond.schwarz"),
            (fluid.hsmg, "coarse", "precond.coarse"),
            (fluid.hsmg.schwarz.fdm, "solve", "precond.fdm"),
            (self.space.gs, "add", "sem.gs_add"),
            (fluid.dealiaser, "convect_weak", "sem.convect"),
            (fluid.dealiaser, "to_fine", "sem.to_fine"),
        ]
        if fluid.pressure_projection is not None:
            out += [
                (fluid.pressure_projection, "solve_with", "solvers.pressure_projection"),
                (fluid.pressure_projection, "amul", "solvers.pressure_amul"),
            ]
        return out

    @property
    def temperature(self) -> np.ndarray:
        return self.sim.temperature

    @property
    def precision_fallbacks(self) -> int:
        return self.sim.fluid.precision_fallbacks

    def fingerprint(self) -> dict:
        return {
            "kinetic_energy": [r.kinetic_energy.hex() for r in self.sim.history],
            "nusselt_volume": [float(s.nusselt.volume).hex() for s in self.sim.stat_samples],
        }


class ScalarCase:
    """:class:`ScalarScheme` alone, advected by a frozen divergence-free roll."""

    hsmg = None
    precision_fallbacks = 0
    after_op = None

    def __init__(self, config, seed: int) -> None:
        self.space = FunctionSpace(config.mesh, config.lx)
        self.scheme = TimeScheme(config.time_order)
        self.dealiaser = Dealiaser(self.space)
        self.scalar = ScalarScheme(self.space, config, self.scheme, dealiaser=self.dealiaser)
        self.scalar.set_temperature(self.space.interpolate(config.initial_temperature))
        self.phase_seconds = self.scalar.timers.totals
        x, _ = _rigid_motion(seed, "shift")(self.space.x, self.space.y)
        z = self.space.z
        # Stream function sin(pi x) sin(pi z): periodic over the box length
        # 2, no flow through the plates, divergence-free.
        self.velocity = (
            0.3 * np.sin(np.pi * x) * np.cos(np.pi * z),
            np.zeros(self.space.shape),
            -0.3 * np.cos(np.pi * x) * np.sin(np.pi * z),
        )
        self.c_fine = tuple(self.dealiaser.to_fine(c) for c in self.velocity)

    def op(self) -> Step:
        mon = self.scalar.step(self.velocity, c_fine=self.c_fine)["temperature"]
        self.scheme.advance()
        return Step(
            pressure=0,
            velocity=0,
            temperature=mon.iterations,
            converged=mon.converged,
            finite=bool(np.isfinite(mon.final_residual)),
            cfl=0.0,
        )

    def targets(self) -> list[tuple[object, str, str]]:
        return [
            (self.scalar, "step", "core.scalar_step"),
            (self.space.gs, "add", "sem.gs_add"),
            (self.dealiaser, "convect_weak", "sem.convect"),
            (self.dealiaser, "to_fine", "sem.to_fine"),
        ]

    @property
    def temperature(self) -> np.ndarray:
        return self.scalar.temperature

    def fingerprint(self) -> dict:
        return {}


# -- the workloads -------------------------------------------------------------


def _rbc_nu_p5(seed: int, quick: bool) -> SimulationCase:
    n, lx = ((2, 2, 2), 4) if quick else ((3, 3, 3), 6)
    config = rbc_box_case(
        1e5, n=n, lx=lx, aspect=2.0, dt=0.025, perturbation_amplitude=PERTURBATION
    )
    config.initial_temperature = _initial_temperature(seed, "shift")
    return SimulationCase(config, stats_interval=10)


def _rbc_cyl_p7(seed: int, quick: bool) -> SimulationCase:
    n_z, lx = (2, 5) if quick else (4, 8)
    config = rbc_cylinder_case(
        1e5, aspect=1.0, n_square=2, n_ring=2, n_z=n_z, lx=lx,
        perturbation_amplitude=PERTURBATION,
    )
    config.initial_temperature = _initial_temperature(seed, "rotation")
    return SimulationCase(config, stats_interval=0)


def _scalar_transport_p7(seed: int, quick: bool) -> ScalarCase:
    n, lx = ((2, 2, 2), 5) if quick else ((6, 6, 6), 8)
    config = rbc_box_case(1e7, n=n, lx=lx, aspect=2.0, dt=0.01)
    config.initial_temperature = _initial_temperature(seed, "shift")
    return ScalarCase(config, seed)


@dataclass
class Workload:
    """Sizes of one solver workload.

    ``job_ops`` is the fixed job behind ``time_to_result_s``; ``block`` the
    traced/untraced alternation length of the traced pass (short against
    how fast the iteration counts drift, so both halves see the same flow).
    """

    build: Callable[[int, bool], object]
    job_ops: int
    quick_job_ops: int
    setup_builds: int
    block: int


WORKLOADS = {
    # 800 steps of dt = 0.025 reach t = 20, the end of the Nu window.
    "rbc_nu_p5": Workload(_rbc_nu_p5, job_ops=800, quick_job_ops=20, setup_builds=15, block=5),
    "rbc_cyl_p7": Workload(_rbc_cyl_p7, job_ops=20, quick_job_ops=4, setup_builds=5, block=2),
    "scalar_transport_p7": Workload(
        _scalar_transport_p7, job_ops=100, quick_job_ops=10, setup_builds=5, block=5
    ),
}


def _cold_builds(
    workload: Workload, seed: int, quick: bool, builds: int
) -> tuple[list[float], float]:
    """Set-up time: case factory, construction and first step, cache emptied.

    Also returns what the operator cache spent building in the last one.
    """
    samples = []
    for _ in range(builds):
        reset_global_cache()
        # Drop the previous build now: left to the cyclic collector's own
        # schedule, two builds are sometimes alive at once and the peak RSS
        # of the run is bimodal.
        gc.collect()
        t0 = perf_counter()
        workload.build(seed, quick).op()
        samples.append(perf_counter() - t0)
    gc.collect()
    return samples, global_cache().build_seconds


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Measure one solver workload; returns metrics, tally and artifacts."""
    workload = WORKLOADS[name]
    job_ops = workload.quick_job_ops if quick else workload.job_ops
    tally = Tally()

    setup_samples, cache_build_s = _cold_builds(
        workload, seed, quick, 2 if quick else workload.setup_builds
    )
    case = workload.build(seed, quick)  # warm cache: what a restarted run pays
    tracer = SpanTracer() if trace else None
    loop = closed_loop(
        case.op,
        seconds=seconds,
        job_ops=job_ops,
        after_op=case.after_op,
        tracer=tracer,
        targets=case.targets() if trace else (),
        block=workload.block,
    )
    steps: list[Step] = loop.outcomes
    tally.operations(len(steps), sum(not (s.converged and s.finite) for s in steps))
    _check_outputs(name, case, seed, quick, tally)

    result = end_to_end(loop, setup_samples, case.space.gs.n_global)
    result["tally"] = tally
    result["fingerprint"] = {
        "iterations": [(s.pressure, s.velocity, s.temperature) for s in steps],
        **case.fingerprint(),
    }
    if trace:
        result["metrics"], result["host"] = _per_layer(
            case, loop, tracer, cache_build_s, tally, quick
        )
        result["spans"] = tracer.spans
    return result


def _window_nusselt(case: SimulationCase) -> dict[str, float]:
    lo, hi = NU_WINDOW
    window = [s.nusselt for s in case.sim.stat_samples if lo - 1e-9 <= s.time <= hi + 1e-9]
    return {
        est: float(np.mean([getattr(nu, est) for nu in window]))
        for est in ("volume", "plate_bottom", "plate_top", "dissipation")
    }


def _check_outputs(name: str, case, seed: int, quick: bool, tally: Tally) -> None:
    temperature = case.temperature
    tally.check("fields_finite", bool(np.all(np.isfinite(temperature))), "temperature field")
    if name == "rbc_nu_p5" and not quick:
        nu = _window_nusselt(case)
        vol = nu["volume"]
        if seed == 0:
            ok = abs(vol - NU_VOLUME_SEED0) <= NU_VOLUME_TOLERANCE * NU_VOLUME_SEED0
            tally.check("nu_volume_reference", ok, f"Nu_vol {vol:.4f} vs {NU_VOLUME_SEED0}")
        else:
            tally.check("nu_volume_band", NU_BAND[0] <= vol <= NU_BAND[1], f"Nu_vol {vol:.4f}")
        spread = (max(nu.values()) - min(nu.values())) / np.mean(list(nu.values()))
        tally.check(
            "nu_estimators_agree",
            spread <= NU_ESTIMATOR_SPREAD,
            "window means " + ", ".join(f"{k} {v:.3f}" for k, v in nu.items())
            + f"; spread {spread:.4f}",
        )
    if name == "scalar_transport_p7" and not quick:
        lo, hi = float(temperature.min()), float(temperature.max())
        tally.check("temperature_bounded", -0.52 <= lo and hi <= 0.52, f"T in [{lo:.4f}, {hi:.4f}]")
        heat = case.space.integrate(temperature)
        tally.check("heat_conserved", abs(heat) < 1e-9, f"integral of T = {heat:.3e}")


# -- per-layer metrics (traced pass) ---------------------------------------------


def _median_ms(fn, budget: float = 0.15) -> float:
    """Median per-call milliseconds over at least five calls."""
    fn()
    samples = []
    start = perf_counter()
    while len(samples) < 5 or perf_counter() - start < budget:
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return 1e3 * median(samples)


def _replay_kernels(case, triad_gbps: float) -> dict[str, float]:
    """Free-function kernels timed on the workload's own space and final field.

    Bytes are *computed* from the sizes of the arrays a kernel reads and
    writes (in units of one field), so the roofline fraction is an upper
    bound on what a counter would show.
    """
    space, u, dl = case.space, case.temperature, case.dealiaser
    coef, dx = space.coef, space.dx
    fine = (dl.lxd / space.lx) ** 3
    c_fine = tuple(dl.to_fine(c) for c in (u, u, u))
    r = space.gs.add(u)
    kernels = {
        # name: (call, fields read + written)
        "sem.ax_helmholtz": (lambda: ax_helmholtz(u, coef, dx, 1e-3, 100.0), 12),
        "sem.ax_poisson": (lambda: ax_poisson(u, coef, dx), 11),
        "sem.gs_add": (lambda: space.gs.add(u), 4),
        "sem.convect": (lambda: dl.convect_weak(u, u, u, u, c_fine), 2 + 13 * fine),
        "sem.to_fine": (lambda: dl.to_fine(u), 1 + fine),
        "sem.grad": (lambda: physical_grad(u, coef, dx), 13),
    }
    if case.hsmg is not None:
        kernels["precond.fdm_solve"] = (lambda: case.hsmg.schwarz.fdm.solve(r), 3)
        kernels["precond.hsmg_apply"] = (lambda: case.hsmg(r), 12)
    out = {}
    for name, (call, fields) in kernels.items():
        ms = _median_ms(call)
        out[f"{name}_ms"] = ms
        out[f"{name}_roofline_frac"] = fields * u.nbytes / (ms * 1e-3) / 1e9 / triad_gbps
    return out


def _replay_insitu(case, tally: Tally, quick: bool) -> dict[str, float]:
    """Compression, streaming POD and the in-situ pipeline on the final field."""
    space, field = case.space, case.temperature
    compressor = SpectralCompressor(space, error_bound=COMPRESSION_ERROR_BOUND)
    mb = field.nbytes / 1e6
    compress_ms = _median_ms(lambda: compressor.compress(field))
    packed = compressor.compress(field)
    decompress_ms = _median_ms(packed.decompress)
    error = compressor.reconstruction_error(field, packed)
    # The truncation bound is exact in the modal norm; the GLL measurement
    # may read up to 1.5x higher (SpectralCompressor docstring).
    if not quick:
        tally.check(
            "compression_error_bounded",
            error <= 1.5 * COMPRESSION_ERROR_BOUND,
            f"relative L2 error {error:.4f} at bound {COMPRESSION_ERROR_BOUND}",
        )

    pod = StreamingPOD(n_modes=6, batch_size=4, weight=space.coef.mass.reshape(-1))
    snapshots = [field * (1.0 + 0.01 * k) for k in range(8)]
    t0 = perf_counter()
    for snap in snapshots:
        pod.push(snap)
    pod_push_ms = 1e3 * (perf_counter() - t0) / len(snapshots)

    # One worker thread beside this one: two threads on a two-core box.
    pipeline = InSituPipeline([CompressionProcessor(compressor, keep=False)], max_queue=8)
    t0 = perf_counter()
    with pipeline:
        for snap in snapshots:
            pipeline.put("temperature", snap)
    fields_per_s = len(snapshots) / (perf_counter() - t0)
    return {
        "compression.compress_mb_per_s": mb / (compress_ms * 1e-3),
        "compression.decompress_mb_per_s": mb / (decompress_ms * 1e-3),
        "compression.reduction": packed.reduction,
        "compression.rel_l2_error": error,
        "insitu.pod_push_ms": pod_push_ms,
        "insitu.pipeline_fields_per_s": fields_per_s,
    }


def _per_layer(
    case, loop: Loop, tracer: SpanTracer, cache_build_s: float, tally: Tally, quick: bool
) -> tuple[dict[str, float], dict]:
    agg = aggregate(tracer.spans)
    steps: list[Step] = loop.outcomes
    traced_ops = max(sum(loop.traced), 1)

    def per_op(name: str, key: str = "total") -> float:
        return agg[name][key] / traced_ops if name in agg else 0.0

    step_total = agg.get("core.step", {"total": 0.0, "self": 0.0})
    stats = agg.get("core.stats_sample")
    out = {
        "core.step_s": per_op("core.step"),
        "core.fluid_step_s": per_op("core.fluid_step"),
        "core.scalar_step_s": per_op("core.scalar_step"),
        "core.fine_velocity_s": per_op("core.fine_velocity"),
        "core.step_self_s": per_op("core.step", "self"),
        # per sample, not per step: sampling is paid every stats_interval steps
        "core.stats_sample_s": stats["total"] / stats["calls"] if stats else 0.0,
        "core.attributed_frac": (
            1.0 - step_total["self"] / step_total["total"] if step_total["total"] else 0.0
        ),
        "sem.gs_add_s": per_op("sem.gs_add"),
        "sem.gs_add_calls": per_op("sem.gs_add", "calls"),
        "sem.convect_s": per_op("sem.convect"),
        "sem.convect_calls": per_op("sem.convect", "calls"),
        "sem.to_fine_s": per_op("sem.to_fine"),
        # the pressure operator minus the gather--scatter it ends with
        "sem.ax_poisson_s": per_op("solvers.pressure_amul", "self"),
        "sem.ax_poisson_calls": per_op("solvers.pressure_amul", "calls"),
        "precond.hsmg_s": per_op("precond.hsmg"),
        "precond.hsmg_calls": per_op("precond.hsmg", "calls"),
        "precond.schwarz_s": per_op("precond.schwarz"),
        "precond.fdm_s": per_op("precond.fdm"),
        "precond.coarse_s": per_op("precond.coarse"),
        "precond.precision_fallbacks": case.precision_fallbacks,
        # the warm build of the measured case against the last cold build
        "precond.cache_hit_rate": global_cache().hit_rate(),
        "precond.cache_build_s": cache_build_s,
        "solvers.pressure_solve_s": per_op("solvers.pressure_solve"),
        "solvers.gmres_self_s": per_op("solvers.pressure_solve", "self"),
        "solvers.projection_self_s": per_op("solvers.pressure_projection", "self"),
        "solvers.pressure_iters": float(np.mean([s.pressure for s in steps])),
        "solvers.pressure_iters_max": max(s.pressure for s in steps),
        "solvers.velocity_iters": float(np.mean([s.velocity for s in steps])),
        "solvers.temperature_iters": float(np.mean([s.temperature for s in steps])),
        "solvers.nonconverged": sum(not s.converged for s in steps),
        "timeint.cfl_max": max(s.cfl for s in steps),
        "bench.trace_overhead_frac": trace_overhead(loop),
    }
    # The program's own Fig. 4 region timers, over every step of the loop.
    for phase in ("pressure", "velocity", "temperature", "advection"):
        out[f"core.phase_{phase}_frac"] = case.phase_seconds.get(phase, 0.0) / sum(loop.durations)
    triad = hostcal.triad(array_bytes=(8 << 20) if quick else None)
    out["perfmodel.host_triad_gbps"] = triad["gbps"]
    out["perfmodel.host_dgemm_gflops"] = hostcal.dgemm(256 if quick else 768)
    out.update(_replay_kernels(case, triad["gbps"]))
    out.update(_replay_insitu(case, tally, quick))
    return out, triad
