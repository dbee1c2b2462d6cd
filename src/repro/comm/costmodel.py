"""DES-style communication cost model over batched exchange rounds.

The batched gather--scatter executes its exchanges as index arithmetic
(count-only ``SimWorld.exchange_batched`` rounds), so "measured" time cannot
come from a wall clock -- at 10^4 simulated ranks the Python process is
three orders of magnitude removed from the machine being simulated.
Instead every exchange round is logged as a :class:`CommRound` (per-edge
``src``/``dst``/``nbytes`` arrays) and this module prices the log with a
discrete-event alpha-beta model read from the Table 1 record,
:class:`~repro.perfmodel.machine.MachineSpec`:

* **inter-node** hops pay the NIC share: the machine's ``alpha_us``
  (network latency + software overhead) and ``beta_us_per_byte`` (one
  GPU's share of the node injection bandwidth) -- the same parameters the
  closed-form ``MachineSpec.halo_exchange_us`` uses, so measured and
  modeled curves share one vocabulary;
* **intra-node** hops ride the Infinity-Fabric/NVLink class links at the
  machine module's intra-node factors: a quarter of the latency and ten
  times the bandwidth.

A round is bulk-synchronous: each rank serializes its own sends and
receives on its link shares, and the round costs what the busiest rank
pays.  That is exactly how imbalance eats Fig. 3's parallel efficiency --
every collective waits for the straggler -- and it is fully deterministic,
which is what lets the scaling campaign commit golden efficiency numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.perfmodel.machine import (
    INTRA_ALPHA_FACTOR,
    INTRA_BW_FACTOR,
    SOFTWARE_OVERHEAD_US,
    MachineSpec,
)

if TYPE_CHECKING:  # pragma: no cover -- topology imports CommRound from here
    from repro.comm.topology import NodeTopology

__all__ = ["CommRound", "CommCostModel"]


@dataclass(frozen=True)
class CommRound:
    """One batched exchange round: parallel per-message edge arrays."""

    phase: str
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray

    @property
    def n_messages(self) -> int:
        return int(self.src.size)

    @property
    def total_bytes(self) -> int:
        return int(self.nbytes.sum()) if self.nbytes.size else 0

    def split_by_locality(self, topology: "NodeTopology") -> dict[str, tuple[int, int]]:
        """``{"intra"|"inter": (messages, bytes)}`` under a topology."""
        intra = topology.node_of(self.src) == topology.node_of(self.dst)
        return {
            "intra": (int(intra.sum()), int(self.nbytes[intra].sum()) if intra.any() else 0),
            "inter": (
                int((~intra).sum()),
                int(self.nbytes[~intra].sum()) if (~intra).any() else 0,
            ),
        }


class CommCostModel:
    """Alpha-beta pricing of logged rounds on a machine's interconnect.

    Parameters
    ----------
    machine:
        Table 1 platform supplying NIC bandwidth share and latency.
    topology:
        Rank-to-node mapping used to classify each edge as intra- or
        inter-node; defaults to the machine's ``gpus_per_node`` packing.

    Inter-node messages travelling *between two node leaders* are priced
    at the node's full injection bandwidth instead of the per-GPU share:
    in the staged exchange only the leader injects for its whole node, so
    it owns the NIC rather than a ``1/gpus_per_node`` slice of it.

    Every inter-node message also serializes through its source and
    destination *node* NICs -- one NIC message slot (the software
    overhead) ``+ bytes / node_injection`` each -- and a round cannot
    finish before the busiest NIC drains.  This message-rate limit is why
    the paper aggregates inter-node traffic through node leaders: a node
    sending 40 tiny messages pays 40 NIC slots, its staged equivalent pays
    one slot per destination node.
    """

    def __init__(self, machine: MachineSpec, topology: "NodeTopology | None" = None) -> None:
        from repro.comm.topology import NodeTopology

        self.machine = machine
        self.topology = (
            topology
            if topology is not None
            else NodeTopology(machine.n_logical_gpus, machine.gpus_per_node)
        )
        self.inter_alpha_us = machine.alpha_us
        self.inter_beta_us = machine.beta_us_per_byte
        self.intra_alpha_us = self.inter_alpha_us * INTRA_ALPHA_FACTOR
        self.intra_beta_us = self.inter_beta_us / INTRA_BW_FACTOR
        self.leader_beta_us = self.inter_beta_us / self.topology.ranks_per_node
        # Full-node injection bandwidth, us per byte.
        self.node_beta_us = 1.0 / (machine.node_injection_gbs * 1e9) * 1e6

    # -- per-round pricing ------------------------------------------------------

    def edge_costs_us(self, round_: CommRound) -> np.ndarray:
        """Per-message wire cost under the edge's link class."""
        if round_.n_messages == 0:
            return np.zeros(0)
        intra = self.topology.node_of(round_.src) == self.topology.node_of(round_.dst)
        nbytes = round_.nbytes.astype(np.float64)
        inter_beta = np.full(round_.n_messages, self.inter_beta_us)
        leader_edge = (self.topology.leader_of(round_.src) == round_.src) & (
            self.topology.leader_of(round_.dst) == round_.dst
        )
        inter_beta[leader_edge] = self.leader_beta_us
        return np.where(
            intra,
            self.intra_alpha_us + nbytes * self.intra_beta_us,
            self.inter_alpha_us + nbytes * inter_beta,
        )

    def rank_round_us(self, round_: CommRound, n_ranks: int) -> np.ndarray:
        """Per-rank busy time of one round (send + receive serialization)."""
        costs = self.edge_costs_us(round_)
        if costs.size == 0:
            return np.zeros(n_ranks)
        sends = np.bincount(round_.src, weights=costs, minlength=n_ranks)
        recvs = np.bincount(round_.dst, weights=costs, minlength=n_ranks)
        return sends + recvs

    def node_nic_us(self, round_: CommRound) -> np.ndarray:
        """Per-node NIC drain time of one round (send + receive sides).

        Only inter-node messages touch the NIC; each occupies both
        endpoint nodes' NICs for one message slot ``+ bytes * node_beta``.
        """
        n_nodes = self.topology.n_nodes
        if round_.n_messages == 0:
            return np.zeros(n_nodes)
        src_node = self.topology.node_of(round_.src)
        dst_node = self.topology.node_of(round_.dst)
        inter = src_node != dst_node
        if not inter.any():
            return np.zeros(n_nodes)
        cost = SOFTWARE_OVERHEAD_US + round_.nbytes[inter] * self.node_beta_us
        sends = np.bincount(src_node[inter], weights=cost, minlength=n_nodes)
        recvs = np.bincount(dst_node[inter], weights=cost, minlength=n_nodes)
        return sends + recvs

    def round_us(self, round_: CommRound, n_ranks: int) -> float:
        """Bulk-synchronous round time: the slowest resource wins.

        A round ends when the busiest rank has processed its messages AND
        the busiest node NIC has drained its inter-node traffic.
        """
        per_rank = self.rank_round_us(round_, n_ranks)
        rank_max = float(per_rank.max()) if per_rank.size else 0.0
        nic = self.node_nic_us(round_)
        nic_max = float(nic.max()) if nic.size else 0.0
        return max(rank_max, nic_max)

    # -- log aggregation --------------------------------------------------------

    def rank_log_us(self, rounds: list[CommRound], n_ranks: int) -> np.ndarray:
        """Per-rank busy time summed over a comm log (imbalance input)."""
        total = np.zeros(n_ranks)
        for round_ in rounds:
            total += self.rank_round_us(round_, n_ranks)
        return total

    def allreduce_us(self, n_ranks: int, nbytes: float = 8.0) -> float:
        """Small allreduce cost: the machine's tree estimate."""
        return float(self.machine.allreduce_us(n_ranks, nbytes))
