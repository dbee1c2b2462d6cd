"""The ``fig3_campaign`` workload: the simulators, as their user runs them.

The user of ``comm``/``perfmodel``/``gpu`` is the performance engineer who
reruns the simulated strong-scaling campaign (the executable Fig. 3) and
the Fig. 2 overlap study.  What they wait for is *host* seconds; what they
read are *simulated* statistics, which must repeat exactly.  The workload
splits set-up-heavy use (partitioning, gather--scatter construction,
pricing: one campaign) from steady-state exchange (functional ``add`` on a
1024-rank world, distributed CG), so a refactor of the rank engine cannot
speed one up by slowing the other unseen.

Simulated time is what the modelled machine would take; host time is what
this process takes.  Only host times are end-to-end metrics here: a
simulated time reads the same on every run, so it is checked for equality
(against the committed ``BENCH_scaling.json`` golden) instead of bounded.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from time import perf_counter

import numpy as np

from benchmarks.spine import hostcal
from benchmarks.spine.loop import Tally, closed_loop, end_to_end, trace_overhead
from benchmarks.spine.spans import SpanTracer, aggregate
from benchmarks.spine.summary import median
from repro.comm import (
    BatchedGatherScatter,
    BatchedWorld,
    CommCostModel,
    DistributedConjugateGradient,
    DistributedGatherScatter,
    NodeTopology,
    SimWorld,
    linear_partition,
    rcb_from_centroids,
)
from repro.comm.campaign import MACHINES, ScalingCampaign
from repro.gpu import A100, MI250X_GCD, SchwarzOverlapStudy
from repro.precond.jacobi import helmholtz_diagonal
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace

__all__ = ["run"]

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "BENCH_scaling.json"
GOLDEN_RANKS = (16, 64, 256, 1024)

SIZES = {
    # element grid, swept rank counts, rank count of the functional exchange
    False: {"shape": (16, 16, 16), "ranks": (16, 64, 256, 1024, 4096), "ops_ranks": 1024,
            "setup_builds": 5, "campaigns": 3, "adds": 40, "solves": 20, "applications": 50},
    True: {"shape": (4, 4, 4), "ranks": (4, 16, 64), "ops_ranks": 16,
           "setup_builds": 2, "campaigns": 1, "adds": 4, "solves": 2, "applications": 5},
}
# Share of the run spent repeating campaigns; the rest goes to the exchange.
CAMPAIGN_SHARE = 0.45


def _sweep_all(size: dict) -> dict[str, list]:
    return {
        key: ScalingCampaign(machine, shape=size["shape"]).sweep(size["ranks"])
        for key, machine in MACHINES.items()
    }


def _simulated(results: dict[str, list]) -> dict[str, list]:
    """Every simulated statistic of a campaign, for exact comparison."""
    return {
        key: [
            (p.n_ranks, p.step_us, p.step_us_flat, p.modeled_step_us, p.efficiency,
             p.gs_topology_speedup, sorted(p.traffic.items()))
            for p in points
        ]
        for key, points in results.items()
    }


def _decomposed_campaign(tracer: SpanTracer, size: dict, results: dict, tally: Tally) -> None:
    """One campaign with a span around each layer's share of the work.

    Issues the same calls ``ScalingCampaign.build_point``/``run_point`` make,
    from here, so the spans need nothing inside ``src/``.  What it prices is
    compared with the real sweep: a breakdown of something else would be
    worthless.
    """
    faithful = True
    for key, machine in MACHINES.items():
        campaign = ScalingCampaign(machine, shape=size["shape"])
        net = campaign.study_net()
        for point in results[key]:
            n = point.n_ranks
            owner = tracer.call("comm.partition", rcb_from_centroids, campaign.centroids, n)
            world = BatchedWorld(n)
            topology = NodeTopology.for_machine(machine, n)
            gs = tracer.call(
                "comm.gs_setup", BatchedGatherScatter,
                campaign.global_ids, owner, campaign.field_shape, world, topology=topology,
            )
            cost = CommCostModel(machine, topology=topology)

            def rounds(gs=gs):
                return gs.rounds("topology"), gs.rounds("flat"), gs.traffic_summary("topology")

            def price(topo, flat, cost=cost, n=n):
                return (
                    sum(cost.round_us(r, n) for r in topo),
                    sum(cost.round_us(r, n) for r in flat),
                    cost.allreduce_us(n),
                )

            def model(campaign=campaign, gs=gs, net=net, n=n, machine=machine):
                for ne in np.unique(gs.rank_element_counts()):
                    if ne:
                        campaign.work.step_costs(float(ne), machine.device, net, n)
                return campaign.study.time_per_step(n) * 1e6

            topo, flat, traffic = tracer.call("comm.rounds", rounds)
            gs_topo, gs_flat, red = tracer.call("comm.price", price, topo, flat)
            modeled = tracer.call("perfmodel.model", model)
            faithful &= (gs_topo, gs_flat, red, modeled, traffic) == (
                point.gs_us_topology, point.gs_us_flat, point.allreduce_us,
                point.modeled_step_us, point.traffic,
            )
    tally.check(
        "breakdown_matches_sweep", faithful, "decomposed campaign prices what sweep() priced"
    )


def _distributed_cg_solves(seed: int, solves: int, tally: Tally) -> dict:
    """Helmholtz solves on four simulated ranks (the SPMD code path).

    One counted solve pins the deterministic iteration and message counts;
    every timed solve must converge in the same number of iterations.
    """
    space = FunctionSpace(box_mesh((3, 2, 2)), 5)
    bc = DirichletBC(space, ["bottom", "top", "x-", "x+", "y-", "y+"], 0.0)
    h1, h2 = 0.05, 20.0
    rng = np.random.default_rng(seed)
    b = space.gs.add(space.coef.mass * rng.normal(size=space.shape)) * bc.mask

    world = SimWorld(4)
    owner = linear_partition(space.mesh.nelv, 4)
    dgs = DistributedGatherScatter(space.gs.global_ids, owner, space.shape, world)
    coef_chunks = {
        name: dgs.scatter_field(getattr(space.coef, name))
        for name in ("g11", "g22", "g33", "g12", "g13", "g23", "mass")
    }

    class LocalCoef:
        pass

    def local_amul(rank, chunk):
        coef = LocalCoef()
        for name, chunks in coef_chunks.items():
            setattr(coef, name, chunks[rank])
        return ax_helmholtz(chunk, coef, space.dx, h1, h2)

    mask_chunks = dgs.scatter_field(bc.mask)
    diag = space.gs.add(helmholtz_diagonal(space, h1, h2))
    diag = np.where(bc.mask == 0.0, 1.0, diag)
    precond = [d * m for d, m in zip(dgs.scatter_field(1.0 / diag), mask_chunks)]
    solver = DistributedConjugateGradient(
        local_amul, dgs, world, local_mask=mask_chunks, precond_diag=precond,
        tol=1e-10, maxiter=400,
    )
    b_chunks = dgs.scatter_field(b)
    world.stats.reset()
    _, first = solver.solve(b_chunks)
    out = {"iterations": first.iterations, "messages": world.stats.p2p_messages, "seconds": []}
    for _ in range(solves):
        t0 = perf_counter()
        _, mon = solver.solve(b_chunks)
        out["seconds"].append(perf_counter() - t0)
        tally.operations(1, not (mon.converged and mon.iterations == first.iterations))
    return out


def _overlap_study(applications: int) -> dict:
    """The Fig. 2 study on both devices: the runs ``reduction()`` makes."""
    out = {"intervals": 0}
    t0 = perf_counter()
    for key, device in (("a100", A100), ("mi250x", MI250X_GCD)):
        study = SchwarzOverlapStudy(device)
        runs = [
            study.run_serial(applications),
            study.run_overlapped(applications),
            study.run_overlapped(applications, priorities=False),
            study.run_overlapped(applications, stream_aware_mpi=True),
        ]
        out["intervals"] += sum(len(r.simulator.trace) for r in runs)
        out[key] = 1.0 - runs[1].wall_us / runs[0].wall_us
    out["seconds"] = perf_counter() - t0
    return out


def _check_golden(results: dict[str, list], tally: Tally) -> None:
    try:
        golden = json.loads(GOLDEN.read_text())["results"]
    except (OSError, ValueError, KeyError) as exc:
        tally.check("scaling_golden", False, f"cannot read {GOLDEN.name}: {exc}")
        return
    worst = 0.0
    for key, points in results.items():
        for p in points:
            if p.n_ranks in GOLDEN_RANKS:
                ref = golden[f"world{p.n_ranks}_scaling_{key}"]
                worst = max(
                    worst,
                    abs(p.step_us * 1e-6 - ref["seconds"]),
                    abs(p.efficiency - ref["efficiency"]),
                )
    tally.check(
        "scaling_golden", worst <= 1e-12,
        f"step seconds and efficiencies vs {GOLDEN.name}: max difference {worst:.2e}",
    )


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Measure the campaign workload; returns metrics, tally and artifacts."""
    size = SIZES[quick]
    tally = Tally()
    tracer = SpanTracer() if trace else None
    lumi = MACHINES["lumi"]

    # Set-up: the worlds the steady-state exchange runs on, for both machines.
    setup_samples = []
    for _ in range(size["setup_builds"]):
        t0 = perf_counter()
        for machine in MACHINES.values():
            ScalingCampaign(machine, shape=size["shape"]).build_point(size["ops_ranks"])
        setup_samples.append(perf_counter() - t0)

    # Campaign repetitions; the first pays imports and page faults and is
    # the warm-up, kept out of the median.
    start = perf_counter()
    campaign_seconds, results, mismatches = [], None, 0
    while len(campaign_seconds) <= size["campaigns"] or (
        perf_counter() - start < CAMPAIGN_SHARE * seconds
    ):
        t0 = perf_counter()
        again = _sweep_all(size)
        campaign_seconds.append(perf_counter() - t0)
        if results is None:
            results, simulated = again, _simulated(again)
        mismatches += _simulated(again) != simulated
    tally.operations(len(campaign_seconds), mismatches)
    tally.check(
        "campaigns_repeat_exactly", mismatches == 0,
        f"simulated statistics of {len(campaign_seconds)} two-machine sweeps",
    )
    if not quick:
        _check_golden(results, tally)
    if trace:
        _decomposed_campaign(tracer, size, results, tally)

    # Steady state: functional dssums on the ops world, algorithms alternating.
    campaign = ScalingCampaign(lumi, shape=size["shape"])
    _, gs, _ = campaign.build_point(size["ops_ranks"])
    field = np.random.default_rng(seed).normal(size=campaign.field_shape)
    reference = np.bincount(
        campaign.global_ids, weights=field.reshape(-1)
    )[campaign.global_ids].reshape(field.shape)
    probe = slice(None, None, 4097)
    digest = float(reference.reshape(-1)[probe].sum())
    algorithms = itertools.cycle(("topology", "flat"))
    last: dict[str, np.ndarray] = {}

    def add() -> bool:
        algorithm = next(algorithms)
        last[algorithm] = out = gs.add(field, algorithm=algorithm)
        return abs(float(out.reshape(-1)[probe].sum()) - digest) <= 1e-9 * abs(digest)

    loop = closed_loop(
        add,
        seconds=seconds - (perf_counter() - start),
        job_ops=size["adds"],
        tracer=tracer,
        block=4,
        span="comm.gs_add",
    )
    tally.operations(len(loop.outcomes), loop.outcomes.count(False))
    tally.check(
        "flat_equals_topology", np.array_equal(last["flat"], last["topology"]),
        "bitwise, 1024 simulated ranks" if not quick else "bitwise",
    )
    tally.check(
        "assembly_matches_single_rank",
        np.allclose(last["topology"], reference, rtol=1e-13, atol=1e-13),
        "distributed dssum vs one bincount over the global numbering",
    )

    cg = _distributed_cg_solves(seed, size["solves"], tally)
    overlap = _overlap_study(size["applications"])
    tally.check(
        "overlap_reduces_wall", 0.0 < overlap["a100"] < 1.0 and 0.0 < overlap["mi250x"] < 1.0,
        f"Fig. 2 reduction A100 {overlap['a100']:.4f}, MI250X {overlap['mi250x']:.4f}",
    )

    result = end_to_end(loop, setup_samples, field.size, median(campaign_seconds[1:]))
    result["samples"]["campaigns"] = len(campaign_seconds) - 1
    result["tally"] = tally
    result["fingerprint"] = {
        "simulated": simulated,
        "dist_cg": [cg["iterations"], cg["messages"]],
        "overlap": [overlap["a100"].hex(), overlap["mi250x"].hex()],
    }
    if trace:
        result["metrics"], result["host"] = _per_layer(
            results, size, loop, tracer, cg, overlap, quick
        )
        result["spans"] = tracer.spans
    return result


def _per_layer(results, size, loop, tracer, cg, overlap, quick) -> tuple[dict[str, float], dict]:
    agg = aggregate(tracer.spans)
    lumi = {p.n_ranks: p for p in results["lumi"]}
    leonardo = {p.n_ranks: p for p in results["leonardo"]}
    ops, top = size["ops_ranks"], size["ranks"][-1]
    triad = hostcal.triad(array_bytes=(8 << 20) if quick else None)
    # Per campaign: both machines, every rank count.
    out = {
        name: agg[span]["total"]
        for name, span in (
            ("comm.partition_s", "comm.partition"),
            ("comm.gs_setup_s", "comm.gs_setup"),
            ("comm.rounds_s", "comm.rounds"),
            ("comm.price_s", "comm.price"),
            ("perfmodel.model_s", "perfmodel.model"),
        )
    }
    out.update({
        "comm.gs_add_topology_ms": 1e3 * median(loop.durations[0::2]),
        "comm.gs_add_flat_ms": 1e3 * median(loop.durations[1::2]),
        "comm.dist_cg_solve_ms": 1e3 * median(cg["seconds"]),
        "comm.dist_cg_iters": cg["iterations"],
        "comm.dist_cg_p2p_messages": cg["messages"],
        "comm.inter_messages_1024": lumi[ops].traffic["inter_messages"],
        "comm.intra_messages_1024": lumi[ops].traffic["intra_messages"],
        "comm.efficiency_1024_lumi": lumi[ops].efficiency,
        "comm.efficiency_1024_leonardo": leonardo[ops].efficiency,
        "comm.gs_topology_speedup_4096": lumi[top].gs_topology_speedup,
        "comm.sim_step_us_lumi4096": lumi[top].step_us,
        "perfmodel.modeled_step_us_lumi4096": lumi[top].modeled_step_us,
        "perfmodel.des_over_model_1024": lumi[ops].step_us / lumi[ops].modeled_step_us,
        "perfmodel.host_triad_gbps": triad["gbps"],
        "perfmodel.host_dgemm_gflops": hostcal.dgemm(256 if quick else 768),
        "gpu.des_s": overlap["seconds"],
        "gpu.des_intervals_per_s": overlap["intervals"] / overlap["seconds"],
        "gpu.fig2_reduction_a100": overlap["a100"],
        "gpu.fig2_reduction_mi250x": overlap["mi250x"],
        "bench.trace_overhead_frac": trace_overhead(loop),
    })
    return out, triad
