"""Simulated-exascale strong-scaling campaign (the executable Fig. 3).

The paper's Fig. 3 plots average time per step against GPU count on LUMI
and Leonardo.  This module reproduces that experiment *in simulation*: a
synthetic structured spectral-element mesh is partitioned over
O(10^2..10^4) simulated ranks, the exchange rounds of its topology-aware
gather--scatter are generated from the block geometry (its shared node
classes, :func:`~repro.comm.topology.exchange_rounds`), and the
:class:`~repro.comm.costmodel.CommCostModel` prices that traffic on the
machine's interconnect (Table 1 parameters).  The "measured" curve is
the discrete-event time of the simulated execution -- per-rank compute
from the :class:`~repro.perfmodel.workmodel.SEMWorkModel` work counts at
each rank's *actual* element load, plus the DES cost of every exchange
and allreduce a step performs; the "modeled" curve is the closed-form
:class:`~repro.perfmodel.scaling.StrongScalingStudy` prediction at the
same elements-per-rank.  Where the two diverge, the divergence is
interesting: the DES sees the partition's real imbalance and message
structure, the closed form assumes symmetric ranks.

Everything here is deterministic -- traffic depends only on the integer
mesh/partition structure, never on field values or a wall clock -- so the
campaign's efficiency numbers are golden-file stable across platforms
(``BENCH_scaling.json``).

Run the campaign (from any directory)::

    PYTHONPATH=src python -m repro.comm.campaign --out scaling_out \
        --ranks 16,64,256,1024
"""

from __future__ import annotations

import argparse
import json
import platform
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.comm.costmodel import CommCostModel, CommRound
from repro.comm.partition import rcb_from_centroids
from repro.comm.simworld import SimWorld
from repro.comm.topology import (
    BatchedGatherScatter,
    NodeTopology,
    exchange_rounds,
    traffic_summary,
)
from repro.perfmodel.machine import LEONARDO, LUMI, MachineSpec
from repro.perfmodel.scaling import StrongScalingStudy
from repro.perfmodel.workmodel import SEMWorkModel

__all__ = [
    "structured_global_ids",
    "CampaignPoint",
    "ScalingCampaign",
    "fig3_scaling_report",
    "bench_record",
    "run_fig3_campaign",
    "main",
]

SCHEMA_VERSION = 1

#: Default element grid: 4096 elements, enough for 4096 simulated ranks.
DEFAULT_SHAPE = (16, 16, 16)
DEFAULT_RANKS = (16, 64, 256, 1024)

MACHINES = {"lumi": LUMI, "leonardo": LEONARDO}


def structured_global_ids(
    shape: tuple[int, int, int], lx: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global node ids and element centroids of a structured hex box.

    Builds the conforming node numbering of an ``ex x ey x ez`` element
    grid at polynomial order ``lx - 1`` directly -- shared faces get shared
    ids, exactly the id structure a
    :class:`~repro.sem.space.FunctionSpace` produces, but without
    materializing coordinates or operators, which is what keeps a
    4096-element campaign mesh cheap enough to re-partition per rank
    count.  Returns ``(flat ids of length nelv * lx**3, centroids)``.
    """
    ex, ey, ez = shape
    if min(shape) < 1 or lx < 2:
        raise ValueError("need a positive element grid and lx >= 2")
    ny = ey * (lx - 1) + 1
    nz = ez * (lx - 1) + 1
    # Per-axis node index of (element-along-axis, local point): e*(lx-1)+a.
    gx = np.arange(ex)[:, None] * (lx - 1) + np.arange(lx)[None, :]
    gy = np.arange(ey)[:, None] * (lx - 1) + np.arange(lx)[None, :]
    gz = np.arange(ez)[:, None] * (lx - 1) + np.arange(lx)[None, :]
    ids = (
        gx[:, None, None, :, None, None] * (ny * nz)
        + gy[None, :, None, None, :, None] * nz
        + gz[None, None, :, None, None, :]
    )
    return ids.reshape(-1).astype(np.int64), _centroids(shape)


def _centroids(shape: tuple[int, int, int]) -> np.ndarray:
    """Element centroids of the unit-spaced ``ex x ey x ez`` grid, element order."""
    return np.stack(
        np.meshgrid(*(np.arange(n, dtype=np.float64) + 0.5 for n in shape), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)


def _node_classes(shape: tuple[int, int, int], lx: int) -> tuple[np.ndarray, np.ndarray]:
    """The structured grid's shared node classes: ``(elements (n, 8), nodes (n,))``.

    Along each axis a node lies either in one element's interior run
    (``lx - 2`` nodes) or on one of the planes between elements (one node,
    two elements; a boundary plane touches one).  A class is one choice
    per axis: every node of it is held by the same up-to-8 elements, so
    it moves as ``nodes`` identical (gid, value) entries.  Elements are
    listed with repeats; classes with one element or no node are dropped.
    """
    axes = []
    for n in shape:
        planes = np.arange(n + 1)
        lo = np.concatenate((np.maximum(planes - 1, 0), np.arange(n)))
        hi = np.concatenate((np.minimum(planes, n - 1), np.arange(n)))
        nodes = np.concatenate((np.ones(n + 1, dtype=np.int64), np.full(n, lx - 2)))
        axes.append((np.stack((lo, hi), axis=1), nodes))
    (ax, nx), (ay, ny), (az, nz) = axes
    elements = (
        ax[:, None, None, :, None, None] * shape[1] + ay[None, :, None, None, :, None]
    ) * shape[2] + az[None, None, :, None, None, :]
    elements = elements.reshape(-1, 8)
    nodes = (nx[:, None, None] * ny[None, :, None] * nz[None, None, :]).reshape(-1)
    keep = (nodes > 0) & (elements != elements[:, :1]).any(axis=1)
    return elements[keep], nodes[keep]


@dataclass
class CampaignPoint:
    """One measured-vs-modeled point of the simulated strong-scaling curve."""

    machine: str
    n_ranks: int
    n_nodes: int
    elements_per_rank: float
    compute_us: float          # busiest rank's per-step device work
    gs_us_topology: float      # DES cost of one topology-staged dssum
    gs_us_flat: float          # counterfactual: one flat dssum
    allreduce_us: float        # one small blocking allreduce
    step_us: float             # measured (DES) step, topology gather-scatter
    step_us_flat: float        # measured step with the flat gather-scatter
    modeled_step_us: float     # closed-form StrongScalingStudy prediction
    traffic: dict = field(default_factory=dict)
    efficiency: float = 1.0
    modeled_efficiency: float = 1.0

    @property
    def gs_topology_speedup(self) -> float:
        """Flat-vs-staged exchange time ratio (> 1 means staging wins)."""
        return self.gs_us_flat / self.gs_us_topology if self.gs_us_topology else 1.0


class ScalingCampaign:
    """Strong-scaling sweep of the simulated exchange on one machine.

    Parameters
    ----------
    machine:
        Table 1 platform (interconnect and device parameters).
    shape, lx:
        The synthetic campaign mesh: element grid and points per element
        edge.  The default 16^3 grid at lx=8 has 4096 elements / 2.1M
        node copies -- a miniature of the paper's 108M-element production
        mesh with the same surface-to-volume scaling behavior.
    work:
        Per-step work counts; defaults to the production iteration regime
        (pressure-dominated, Fig. 4).
    """

    def __init__(
        self,
        machine: MachineSpec,
        shape: tuple[int, int, int] = DEFAULT_SHAPE,
        lx: int = 8,
        work: SEMWorkModel | None = None,
    ) -> None:
        self.machine = machine
        self.shape = tuple(shape)
        self.lx = lx
        self.work = work if work is not None else SEMWorkModel(lx=lx)
        self.centroids = _centroids(self.shape)
        self.nelv = int(np.prod(self.shape))
        self.field_shape = (self.nelv, lx, lx, lx)
        self.study = StrongScalingStudy(machine, n_elements=self.nelv, work=self.work)
        self._class_elements, self._class_nodes = _node_classes(self.shape, lx)

    @cached_property
    def global_ids(self) -> np.ndarray:
        """The mesh's flat node numbering, which only :meth:`build_point` needs."""
        return structured_global_ids(self.shape, self.lx)[0]

    def _exchanges_per_step(self) -> tuple[float, int]:
        """(gather-scatters in fine-halo units, allreduces) per step.

        Summed over ``SEMWorkModel.step_exchanges``, the table the
        closed-form step prices too.
        """
        table = self.work.step_exchanges().values()
        return sum(n * size for n, size, _ in table), sum(r for _, _, r in table)

    # -- one scaling point ------------------------------------------------------

    def build_point(
        self, n_ranks: int
    ) -> tuple[SimWorld, BatchedGatherScatter, CommCostModel]:
        """Partition over ``n_ranks`` and wire the batched engine for a functional ``add``."""
        owner = rcb_from_centroids(self.centroids, n_ranks)
        world = SimWorld(n_ranks)
        topology = NodeTopology.for_machine(self.machine, n_ranks)
        gs = BatchedGatherScatter(
            self.global_ids, owner, self.field_shape, world, topology=topology
        )
        cost = CommCostModel(self.machine, topology=topology)
        return world, gs, cost

    def rounds(
        self, owner: np.ndarray, topology: NodeTopology
    ) -> tuple[list[CommRound], list[CommRound]]:
        """The flat and staged dssum rounds of a partition, from block geometry.

        The same rounds ``BatchedGatherScatter(...).rounds()`` replays, from
        the shared node classes instead of every node copy: each rank
        holding a class, other than its lowest holder (the owner), sends
        the owner one entry per node of the class.
        """
        ranks = np.sort(np.asarray(owner, dtype=np.int64)[self._class_elements], axis=1)
        holder = ranks[:, 1:]
        moving = holder != ranks[:, :-1]
        row = np.nonzero(moving)[0]
        return exchange_rounds(
            holder[moving], ranks[row, 0], self._class_nodes[row], topology.n_ranks, topology
        )

    def _rank_compute_us(self, owner: np.ndarray, n_ranks: int) -> np.ndarray:
        """Per-rank device time (compute/launch legs) at actual element loads."""
        counts = np.bincount(owner, minlength=n_ranks)
        out = np.zeros(n_ranks)
        for ne in np.unique(counts):
            if ne == 0:
                continue
            costs = self.work.step_costs(
                float(ne), self.machine.device, self.machine, n_ranks
            )
            t = sum(
                max(costs[k].compute_us, costs[k].launch_us)
                for k in ("pressure", "velocity", "temperature", "advection")
            )
            out[counts == ne] = t
        return out

    def study_net(self) -> MachineSpec:
        """The network model ``step_costs`` prices with: the machine record."""
        return self.machine

    def run_point(self, n_ranks: int) -> CampaignPoint:
        """Run one rank count: one dssum per algorithm, DES-price the step."""
        owner = rcb_from_centroids(self.centroids, n_ranks)
        topology = NodeTopology.for_machine(self.machine, n_ranks)
        flat, staged = self.rounds(owner, topology)
        cost = CommCostModel(self.machine, topology=topology)
        gs_topo = sum(cost.round_us(r, n_ranks) for r in staged)
        gs_flat = sum(cost.round_us(r, n_ranks) for r in flat)
        red = cost.allreduce_us(n_ranks)

        compute = self._rank_compute_us(owner, n_ranks)
        n_gs, n_red = self._exchanges_per_step()
        step = float(compute.max()) + n_gs * gs_topo + n_red * red
        step_flat = float(compute.max()) + n_gs * gs_flat + n_red * red
        modeled = self.study.time_per_step(n_ranks) * 1e6

        return CampaignPoint(
            machine=self.machine.name,
            n_ranks=n_ranks,
            n_nodes=topology.n_nodes,
            elements_per_rank=self.nelv / n_ranks,
            compute_us=float(compute.max()),
            gs_us_topology=gs_topo,
            gs_us_flat=gs_flat,
            allreduce_us=red,
            step_us=step,
            step_us_flat=step_flat,
            modeled_step_us=modeled,
            traffic=traffic_summary(staged, topology),
        )

    def sweep(self, rank_counts: tuple[int, ...] = DEFAULT_RANKS) -> list[CampaignPoint]:
        """The strong-scaling series, efficiencies relative to the smallest."""
        points = [self.run_point(n) for n in sorted(rank_counts)]
        if not points:
            return points
        base = points[0]
        for pt in points:
            pt.efficiency = (base.step_us * base.n_ranks) / (pt.step_us * pt.n_ranks)
            pt.modeled_efficiency = (base.modeled_step_us * base.n_ranks) / (
                pt.modeled_step_us * pt.n_ranks
            )
        return points

    # -- fleet analytics at one representative point ----------------------------

    def fleet_snapshot(self, n_ranks: int):
        """Per-rank DES imbalance of one step at one rank count.

        Hands the step's per-rank busy times (compute, gather--scatter,
        allreduce) to :func:`~repro.observability.imbalance.analyze_totals`
        and returns its report -- the Fig. 4-style straggler view of the
        simulated campaign.
        """
        from repro.observability.imbalance import analyze_totals

        owner = rcb_from_centroids(self.centroids, n_ranks)
        topology = NodeTopology.for_machine(self.machine, n_ranks)
        cost = CommCostModel(self.machine, topology=topology)
        compute_s = self._rank_compute_us(owner, n_ranks) * 1e-6
        n_gs, n_red = self._exchanges_per_step()
        gs_s = cost.rank_log_us(self.rounds(owner, topology)[1], n_ranks) * n_gs * 1e-6
        allreduce_s = n_red * cost.allreduce_us(n_ranks) * 1e-6
        return analyze_totals(
            {
                r: {
                    "topo.compute": compute_s[r],
                    "topo.gs": gs_s[r],
                    "topo.allreduce": allreduce_s,
                }
                for r in range(n_ranks)
            }
        )


def fig3_scaling_report(
    results: dict[str, list[CampaignPoint]],
    studies: dict[str, StrongScalingStudy] | None = None,
) -> str:
    """Text rendering of the measured-vs-modeled Fig. 3 curves.

    ``results`` maps machine keys to campaign sweeps; when ``studies`` is
    given, a closing section maps the curves to the paper's actual Fig. 3
    GPU counts via the closed-form model at production scale.
    """
    lines = ["fig3_scaling: simulated strong scaling, measured (DES) vs modeled", ""]
    for key, points in results.items():
        if not points:
            continue
        pt0 = points[0]
        lines.append(
            f"{pt0.machine}: {int(pt0.elements_per_rank * pt0.n_ranks)} elements, "
            f"topology-staged gather-scatter"
        )
        lines.append(
            f"  {'ranks':>6} {'nodes':>6} {'elem/rank':>10} "
            f"{'t/step meas':>12} {'t/step model':>13} {'eff meas':>9} "
            f"{'eff model':>10} {'gs topo x':>10}"
        )
        for pt in points:
            lines.append(
                f"  {pt.n_ranks:>6d} {pt.n_nodes:>6d} {pt.elements_per_rank:>10.1f} "
                f"{pt.step_us * 1e-6:>10.4f} s {pt.modeled_step_us * 1e-6:>11.4f} s "
                f"{pt.efficiency:>8.1%} {pt.modeled_efficiency:>9.1%} "
                f"{pt.gs_topology_speedup:>10.2f}"
            )
        last = points[-1]
        t = last.traffic
        if "inter_messages" in t:
            lines.append(
                f"  at {last.n_ranks} ranks: {t['messages']} msgs/dssum "
                f"({t['inter_messages']} inter-node, {t['intra_messages']} intra-node), "
                f"{t['bytes'] / 1e6:.2f} MB"
            )
        lines.append("")
    if studies:
        lines.append("paper-scale model (Fig. 3 GPU counts, 108M-element case):")
        for key, study in studies.items():
            for pt in study.paper_series():
                lines.append(
                    f"  {study.machine.name:<9s} {pt.n_gpus:>6d} GPUs  "
                    f"{pt.elements_per_gpu:>8.0f} elem/GPU  "
                    f"{pt.time_per_step_s:>8.4f} s/step  {pt.parallel_efficiency:>6.1%}"
                )
    return "\n".join(lines)


def bench_record(
    results: dict[str, list[CampaignPoint]], environment: dict | None = None
) -> dict:
    """A ``BENCH_scaling.json`` payload from campaign sweeps.

    One ``world<N>_scaling_<machine>`` entry per campaign point;
    ``seconds`` is the *simulated* (DES) step time -- deterministic, so
    the committed golden file is held to equality (tier-1 and CI's ``cmp``
    against a fresh regeneration; the spine's ``fig3_campaign`` to 1e-12).
    """
    entries: dict[str, dict] = {}
    for key, points in results.items():
        for pt in points:
            entries[f"world{pt.n_ranks}_scaling_{key}"] = {
                "seconds": pt.step_us * 1e-6,
                "ranks": pt.n_ranks,
                "nodes": pt.n_nodes,
                "elements_per_rank": pt.elements_per_rank,
                "modeled_seconds": pt.modeled_step_us * 1e-6,
                "efficiency": pt.efficiency,
                "modeled_efficiency": pt.modeled_efficiency,
                "gs_topology_speedup": pt.gs_topology_speedup,
                "inter_messages": pt.traffic.get("inter_messages"),
                "intra_messages": pt.traffic.get("intra_messages"),
            }
    return {
        "schema": SCHEMA_VERSION,
        "tier": "scaling",
        "environment": environment or {},
        "results": entries,
    }


def run_fig3_campaign(
    rank_counts: tuple[int, ...] = DEFAULT_RANKS,
    shape: tuple[int, int, int] = DEFAULT_SHAPE,
    lx: int = 8,
    machines: dict[str, MachineSpec] | None = None,
) -> dict[str, list[CampaignPoint]]:
    """Sweep every machine; returns ``{machine_key: [CampaignPoint, ...]}``."""
    machines = machines if machines is not None else MACHINES
    return {
        key: ScalingCampaign(machine, shape=shape, lx=lx).sweep(rank_counts)
        for key, machine in machines.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="bench_out", help="artifact directory")
    parser.add_argument(
        "--ranks", default=",".join(str(n) for n in DEFAULT_RANKS),
        help="comma-separated simulated rank counts",
    )
    parser.add_argument(
        "--shape", default="x".join(str(n) for n in DEFAULT_SHAPE),
        help="element grid, e.g. 16x16x16",
    )
    parser.add_argument("--lx", type=int, default=8, help="points per element edge")
    parser.add_argument(
        "--fleet-ranks", type=int, default=64,
        help="rank count for the per-rank imbalance table (0 disables)",
    )
    args = parser.parse_args(argv)

    rank_counts = tuple(int(t) for t in args.ranks.split(","))
    shape = tuple(int(t) for t in args.shape.split("x"))
    if len(shape) != 3:
        raise SystemExit("--shape must be ExEyEz, e.g. 16x16x16")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_fig3_campaign(rank_counts, shape=shape, lx=args.lx)

    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    record = bench_record(results, environment=environment)
    bench_path = out_dir / "BENCH_scaling.json"
    bench_path.write_text(json.dumps(record, indent=2) + "\n")

    studies = {
        key: ScalingCampaign(m, shape=shape, lx=args.lx).study for key, m in MACHINES.items()
    }
    # Paper-scale model section uses the production element count.
    for study in studies.values():
        study.n_elements = 108_000_000
    report = fig3_scaling_report(results, studies=studies)
    report_path = out_dir / "fig3_scaling.txt"
    report_path.write_text(report + "\n")
    print(report)

    if args.fleet_ranks:
        campaign = ScalingCampaign(MACHINES["lumi"], shape=shape, lx=args.lx)
        imbalance = campaign.fleet_snapshot(args.fleet_ranks)
        (out_dir / "fig3_fleet_imbalance.txt").write_text(imbalance.render() + "\n")
        print()
        print(imbalance.render())

    print(f"wrote {bench_path} and {report_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
