"""Perf-regression harness: the smoke tier of the bench trajectory.

Measures (a) the solver's hot kernels (the roofline calibration set of
``test_kernels.py``) and (b) whole-step/per-phase wall times of a small
box RBC case, and records both into ``BENCH_kernels.json`` and
``BENCH_step.json`` with environment metadata.  The committed copies at
the repository root are the baselines the comparator
(:mod:`benchmarks.compare_bench`) diffs against, so any hot-path PR can
prove -- or is forced to confess -- its effect on the numbers the paper's
Figs. 2 and 4 are about.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf_harness --out-dir bench_out
    PYTHONPATH=src python -m benchmarks.compare_bench BENCH_kernels.json \
        bench_out/BENCH_kernels.json

Timings are best-of-``repeats`` over a calibrated number of inner
iterations: the minimum is the standard noise-robust statistic for
microbenchmarks (anything slower was interference, not the code).
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.comm import (
    DistributedConjugateGradient,
    DistributedGatherScatter,
    SimWorld,
    linear_partition,
)
from repro.core import Simulation, rbc_box_case
from repro.core.timers import RegionTimers
from repro.precond import FastDiagonalization, HybridSchwarzMultigrid
from repro.precond.jacobi import helmholtz_diagonal
from repro.precond.cache import global_cache, reset_global_cache
from repro.sem.bc import DirichletBC
from repro.sem.dealias import Dealiaser
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace

__all__ = [
    "environment",
    "kernel_benchmarks",
    "step_benchmark",
    "world_step_benchmark",
    "scaling_campaign_benchmark",
    "noop_tracer_overhead",
    "profiler_overhead",
    "measure_memory",
    "write_tuning_artifacts",
    "append_to_ledger",
    "run_harness",
    "main",
]

SCHEMA_VERSION = 1

# The kernel space mirrors benchmarks/test_kernels.py: production-like
# polynomial degree 7 on a modest element count.
KERNEL_MESH = (6, 6, 6)
KERNEL_LX = 8


def environment() -> dict:
    """Metadata pinning where/when a bench record was produced."""
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "git_sha": git_sha,
    }


def measure_memory(fn) -> dict:
    """Memory footprint of one ``fn()`` call: peak RSS plus allocation delta.

    ``peak_rss_bytes`` is the process high-water mark (``ru_maxrss``) --
    monotone across the whole run, so per-entry differences only show when
    an entry *raises* the peak.  ``alloc_delta_bytes`` is the
    tracemalloc-observed peak of Python-level allocations during the call,
    which is the per-entry figure: a kernel that suddenly materializes an
    extra field-sized temporary moves it even when the RSS peak does not.
    Measured in a separate untimed call so tracemalloc's overhead never
    touches the timing loops.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "alloc_delta_bytes": int(peak),
    }


def _best_seconds(fn, repeats: int = 5, min_time: float = 0.02) -> float:
    """Best-of-``repeats`` per-call seconds, inner loop calibrated to
    ``min_time`` so the clock granularity never dominates."""
    fn()  # warm caches, JIT-able BLAS dispatch, page faults
    inner = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_time or inner >= 1024:
            break
        inner *= 2
    best = dt / inner
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def kernel_benchmarks(
    repeats: int = 5, mesh: tuple[int, int, int] = KERNEL_MESH, lx: int = KERNEL_LX
) -> dict[str, dict]:
    """Time the hot kernels; returns ``{name: {seconds, bytes, gbps}}``."""
    sp = FunctionSpace(box_mesh(mesh), lx)
    rng = np.random.default_rng(0)
    u = rng.normal(size=sp.shape)
    dl = Dealiaser(sp)
    cf = (dl.to_fine(u), dl.to_fine(u), dl.to_fine(u))
    fdm = FastDiagonalization(sp)
    hsmg = HybridSchwarzMultigrid(sp)
    r = sp.gs.add(u)

    cases = {
        # name: (callable, effective bytes for the bandwidth figure)
        "ax_helmholtz": (lambda: ax_helmholtz(u, sp.coef, sp.dx, 1.0, 10.0), 9 * u.nbytes),
        "gather_scatter": (lambda: sp.gs.add(u), 2 * u.nbytes),
        "dealias_convect": (
            lambda: dl.convect_weak(u, u, u, u, cf),
            6 * u.nbytes * (dl.lxd / sp.lx) ** 3,
        ),
        "fdm_solve": (lambda: fdm.solve(u), 6 * u.nbytes),
        "hsmg_apply": (lambda: hsmg(r), 12 * u.nbytes),
    }
    results = {}
    for name, (fn, nbytes) in cases.items():
        seconds = _best_seconds(fn, repeats=repeats)
        results[name] = {
            "seconds": seconds,
            "bytes": int(nbytes),
            "gbps": nbytes / seconds / 1e9,
            "memory": measure_memory(fn),
        }
    return results


def noop_tracer_overhead(
    repeats: int = 5, mesh: tuple[int, int, int] = KERNEL_MESH, lx: int = KERNEL_LX
) -> dict:
    """Overhead of a no-op-traced region around the ax kernel.

    This is the acceptance number for the observability layer: wrapping
    the kernel in ``RegionTimers.region`` with the default
    :class:`~repro.observability.tracer.NullTracer` must cost < 2 %.
    """
    sp = FunctionSpace(box_mesh(mesh), lx)
    u = np.random.default_rng(0).normal(size=sp.shape)
    timers = RegionTimers()  # carries NULL_TRACER

    def bare():
        ax_helmholtz(u, sp.coef, sp.dx, 1.0, 10.0)

    def traced():
        with timers.region("ax"):
            ax_helmholtz(u, sp.coef, sp.dx, 1.0, 10.0)

    t_bare = _best_seconds(bare, repeats=repeats)
    t_traced = _best_seconds(traced, repeats=repeats)
    return {
        "bare_seconds": t_bare,
        "traced_seconds": t_traced,
        "overhead_fraction": max(0.0, t_traced / t_bare - 1.0),
    }


def profiler_overhead(
    n_steps: int = 5,
    warmup: int = 3,
    n: tuple[int, int, int] = (3, 3, 3),
    lx: int = 6,
    repeats: int = 3,
) -> dict:
    """Overhead of the continuous profiler on the whole-step path.

    The acceptance number for the profiling layer: attaching
    :class:`~repro.observability.profile.profiler.ContinuousProfiler` to a
    :class:`~repro.core.simulation.Simulation` must cost < 3 % per step.
    The profiler only diffs ``RegionTimers`` totals and evaluates the
    closed-form work model, so the cost is a handful of dict lookups and
    float ops per step -- this measures it instead of asserting it.  The
    bare and profiled legs are interleaved per repeat so slow drift of the
    host (thermal, background load) cannot bias one leg.
    """
    from repro.observability.profile import ContinuousProfiler

    def one_window(profiled: bool) -> float:
        config = rbc_box_case(1e5, n=n, lx=lx, aspect=2.0, perturbation_amplitude=0.1)
        profiler = ContinuousProfiler() if profiled else None
        sim = Simulation(config, profiler=profiler)
        sim.run(n_steps=warmup)
        t0 = time.perf_counter()
        sim.run(n_steps=n_steps)
        return (time.perf_counter() - t0) / n_steps

    t_bare = float("inf")
    t_profiled = float("inf")
    for _ in range(max(repeats, 1)):
        t_bare = min(t_bare, one_window(False))
        t_profiled = min(t_profiled, one_window(True))
    return {
        "bare_seconds": t_bare,
        "profiled_seconds": t_profiled,
        "overhead_fraction": max(0.0, t_profiled / t_bare - 1.0),
    }


def step_benchmark(
    n_steps: int = 5,
    warmup: int = 3,
    n: tuple[int, int, int] = (3, 3, 3),
    lx: int = 6,
    repeats: int = 3,
) -> dict[str, dict]:
    """Whole-step and per-phase wall times of a small box RBC case.

    Phases come from the same ``RegionTimers`` regions the Fig. 4
    breakdown uses; ``gather_scatter`` is the dssum time accumulated by
    the operator itself.  The *same* physical window (steps
    ``warmup+1 .. warmup+n_steps`` from the identical initial condition)
    is re-run ``repeats`` times from scratch and the fastest repeat wins:
    iteration counts depend on the flow state, so repeating a fixed
    window separates scheduler/VM noise from genuine cost without mixing
    in easier or harder physics.
    """
    best: dict[str, dict] | None = None
    for _ in range(max(repeats, 1)):
        config = rbc_box_case(1e5, n=n, lx=lx, aspect=2.0, perturbation_amplitude=0.1)
        sim = Simulation(config)
        sim.run(n_steps=warmup)
        sim.timers.reset()
        sim.space.gs.reset_traffic()

        t0 = time.perf_counter()
        sim.run(n_steps=n_steps)
        total = time.perf_counter() - t0

        results = {"step": {"seconds": total / n_steps, "steps": n_steps}}
        for phase, seconds in sim.timers.totals.items():
            results[phase] = {"seconds": seconds / n_steps}
        gs = sim.space.gs
        results["gather_scatter"] = {
            "seconds": gs.seconds / n_steps,
            "calls": gs.calls // n_steps,
            "bytes": gs.bytes_moved // n_steps,
        }
        # Memory is measured last -- the extra instrumented step must not
        # leak into the phase totals harvested above.
        results["step"]["memory"] = measure_memory(sim.step)
        if best is None or results["step"]["seconds"] < best["step"]["seconds"]:
            best = results
    assert best is not None
    return best


def world_step_benchmark(
    nranks: int = 4,
    repeats: int = 3,
    mesh: tuple[int, int, int] = (3, 2, 2),
    lx: int = 5,
) -> dict[str, dict]:
    """Multi-rank timing: one distributed-CG Helmholtz solve on a
    ``SimWorld(size=4)``, the executable stand-in for the paper's strong-
    scaling step (Fig. 3).  Tracks the SPMD code path -- per-rank operator
    application plus the two-phase gather--scatter -- so a regression in
    the distributed layer shows up even though the world is simulated.
    """
    sp = FunctionSpace(box_mesh(mesh), lx)
    bc = DirichletBC(sp, ["bottom", "top", "x-", "x+", "y-", "y+"], 0.0)
    h1, h2 = 0.05, 20.0
    rng = np.random.default_rng(0)
    b = sp.gs.add(sp.coef.mass * rng.normal(size=sp.shape)) * bc.mask

    world = SimWorld(nranks)
    owner = linear_partition(sp.mesh.nelv, nranks)
    dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, world)
    coef_chunks = {
        name: dgs.scatter_field(getattr(sp.coef, name))
        for name in ("g11", "g22", "g33", "g12", "g13", "g23", "mass")
    }

    class _LocalCoef:
        pass

    def local_amul(r, chunk):
        c = _LocalCoef()
        for name, chunks in coef_chunks.items():
            setattr(c, name, chunks[r])
        return ax_helmholtz(chunk, c, sp.dx, h1, h2)

    mask_chunks = dgs.scatter_field(bc.mask)
    diag = sp.gs.add(helmholtz_diagonal(sp, h1, h2))
    diag = np.where(bc.mask == 0.0, 1.0, diag)
    pd = [d * m for d, m in zip(dgs.scatter_field(1.0 / diag), mask_chunks)]
    solver = DistributedConjugateGradient(
        local_amul, dgs, world, local_mask=mask_chunks, precond_diag=pd,
        tol=1e-10, maxiter=400,
    )
    b_chunks = dgs.scatter_field(b)

    # One counted solve pins the deterministic per-solve traffic.
    world.stats.reset()
    _, mon = solver.solve(b_chunks)
    messages = world.stats.p2p_messages

    seconds = _best_seconds(lambda: solver.solve(b_chunks), repeats=repeats, min_time=0.0)
    return {
        f"world{nranks}_dist_cg": {
            "seconds": seconds,
            "iterations": mon.iterations,
            "ranks": nranks,
            "p2p_messages_per_solve": messages,
            "memory": measure_memory(lambda: solver.solve(b_chunks)),
        }
    }


def scaling_campaign_benchmark(n_ranks: int = 4096, repeats: int = 3) -> dict[str, dict]:
    """Engine speed of the simulated-exascale scaling campaign.

    Times one full :meth:`~repro.comm.campaign.ScalingCampaign.run_point`
    at 4096 simulated ranks -- partition, batched gather--scatter setup,
    staged-round construction and DES pricing -- i.e. the wall-clock cost
    of producing one Fig. 3 point.  This is the tentpole claim of the
    batched comm engine (O(10^3..10^4) ranks in seconds), so it is gated
    like any other hot path; the *simulated* step time itself is
    deterministic and lives in ``BENCH_scaling.json``.
    """
    from repro.comm.campaign import ScalingCampaign
    from repro.perfmodel.machine import LUMI

    campaign = ScalingCampaign(LUMI)
    point = campaign.run_point(n_ranks)
    seconds = _best_seconds(
        lambda: campaign.run_point(n_ranks), repeats=repeats, min_time=0.0
    )
    return {
        f"scaling_{n_ranks}": {
            "seconds": seconds,
            "ranks": n_ranks,
            "simulated_step_seconds": point.step_us * 1e-6,
            "gs_topology_speedup": point.gs_topology_speedup,
            "memory": measure_memory(lambda: campaign.run_point(n_ranks)),
        }
    }


def write_tuning_artifacts(
    out_dir: Path, shapes: tuple[tuple[int, int], ...] = ((27, 5), (216, 7))
) -> tuple[Path, Path]:
    """Write the autotuner table and operator-cache report artifacts.

    ``tuning_table.json`` records the startup sweep for the harness's own
    shapes (the step-bench and kernel-bench meshes by default) so a CI run
    archives both *what was picked* and the measurements behind the pick;
    ``cache_report.json`` snapshots the process-wide operator cache --
    including the hit rate the ISSUE makes an exported metric -- after the
    benchmarks have exercised it.
    """
    from repro.sem.autotune import TuningTable, autotune

    out_dir = Path(out_dir)
    table = TuningTable()
    for nelem, p in shapes:
        table.add(autotune(nelem, p))
    table_path = out_dir / "tuning_table.json"
    table.save(table_path)

    report_path = out_dir / "cache_report.json"
    report = global_cache().report()
    report["hit_rate"] = global_cache().hit_rate()
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return table_path, report_path


def append_to_ledger(
    ledger_path: Path, kernels_path: Path, step_path: Path, tuning_path: Path | None = None
) -> str:
    """Append one campaign-ledger run built from the bench artifacts.

    Merges the kernel and step records into a single
    :class:`~repro.observability.campaign.ledger.RunRecord` (the run id is
    derived from the git sha + timestamp the harness already recorded in
    the environment block -- the ledger itself never reads a clock) and
    appends it to the JSONL ledger at ``ledger_path``.  Returns the run id.
    """
    from repro.observability.campaign import Ledger, RunRecord

    kernels = json.loads(Path(kernels_path).read_text())
    step = json.loads(Path(step_path).read_text())
    tuning = None
    if tuning_path is not None and Path(tuning_path).exists():
        tuning = json.loads(Path(tuning_path).read_text())
    record = RunRecord.from_bench(kernels, step, tuning=tuning)
    Ledger(Path(ledger_path)).append(record)
    return record.run_id


def run_harness(
    out_dir: Path,
    repeats: int = 5,
    n_steps: int = 5,
    warmup: int = 3,
    ledger: Path | None = None,
) -> tuple[Path, Path]:
    """Run both tiers and write ``BENCH_kernels.json`` / ``BENCH_step.json``
    plus the ``tuning_table.json`` / ``cache_report.json`` artifacts.
    With ``ledger`` set, the run is also appended to that campaign ledger."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    reset_global_cache()

    kernels = {
        "schema": SCHEMA_VERSION,
        "tier": "smoke",
        "environment": env,
        "results": kernel_benchmarks(repeats=repeats),
        "noop_tracer_overhead": noop_tracer_overhead(repeats=repeats),
        # Longer windows than the step bench: the per-step profiler cost is
        # tens of microseconds against a ~20 ms step, so the overhead
        # figure is jitter-dominated unless each timed window spans enough
        # steps to average the host's scheduling noise.
        "profiler_overhead": profiler_overhead(
            n_steps=max(2 * n_steps, 10), warmup=warmup, repeats=max(repeats, 3)
        ),
    }
    kernels_path = out_dir / "BENCH_kernels.json"
    kernels_path.write_text(json.dumps(kernels, indent=2) + "\n")

    step_results = step_benchmark(n_steps=n_steps, warmup=warmup)
    step_results.update(world_step_benchmark(repeats=max(2, repeats - 2)))
    step_results.update(scaling_campaign_benchmark(repeats=max(2, repeats - 2)))
    step = {
        "schema": SCHEMA_VERSION,
        "tier": "smoke",
        "environment": env,
        "results": step_results,
    }
    step_path = out_dir / "BENCH_step.json"
    step_path.write_text(json.dumps(step, indent=2) + "\n")

    tuning_path, _ = write_tuning_artifacts(out_dir)
    if ledger is not None:
        run_id = append_to_ledger(ledger, kernels_path, step_path, tuning_path)
        print(f"appended run {run_id} to {ledger}")
    return kernels_path, step_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".", help="where to write BENCH_*.json")
    parser.add_argument("--repeats", type=int, default=5, help="best-of repeats per kernel")
    parser.add_argument("--steps", type=int, default=5, help="measured steps for the step bench")
    parser.add_argument("--warmup", type=int, default=3, help="untimed warmup steps")
    parser.add_argument(
        "--ledger", default=None,
        help="campaign ledger (JSONL) to append this run to",
    )
    args = parser.parse_args(argv)

    kernels_path, step_path = run_harness(
        Path(args.out_dir),
        repeats=args.repeats,
        n_steps=args.steps,
        warmup=args.warmup,
        ledger=Path(args.ledger) if args.ledger else None,
    )
    for path in (kernels_path, step_path):
        data = json.loads(path.read_text())
        print(f"wrote {path}")
        for name, rec in data["results"].items():
            extra = f"  ({rec['gbps']:.2f} GB/s)" if "gbps" in rec else ""
            print(f"  {name:<18s} {rec['seconds'] * 1e3:9.3f} ms{extra}")
    kernels_data = json.loads(kernels_path.read_text())
    overhead = kernels_data["noop_tracer_overhead"]
    print(f"no-op tracer overhead: {100 * overhead['overhead_fraction']:.2f}%")
    prof = kernels_data["profiler_overhead"]
    print(f"continuous-profiler overhead: {100 * prof['overhead_fraction']:.2f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
