"""The gather--scatter index and the topology-aware batched dssum.

:class:`CopyIndex` is the one index both distributed gather--scatters
reduce on: every node copy sorted by (gid, holder rank), the partials one
``bincount`` over it.  :class:`BatchedGatherScatter` runs the paper's
scaling-critical communication pattern on it as count-only exchange
rounds; its per-rank sibling
:class:`~repro.comm.distributed_gs.DistributedGatherScatter` moves the
same entries as buffers through ``SimWorld.exchange``.  One builder,
:func:`exchange_rounds`, makes those rounds from (holder, owner) edges,
whether they come from the index or from a campaign's block geometry.

At 16,384 GCDs the flat gather--scatter sends one
message per (holder, owner) rank pair, and the inter-node message count
is what kills strong scaling (cf. the Nek5000 strong-scaling studies,
arXiv:1706.02970 / arXiv:2109.03592).  The topology-aware variant keeps
node-local partials on the fast intra-node links and *stages* the
inter-node traffic through node-leader ranks -- each node sends one
aggregated message per destination node instead of every rank messaging
every remote owner.

**Bit-identity by construction.**  Staging only changes *who carries*
the (gid, partial) entries, never the arithmetic: leaders concatenate
entries, and the final reduction -- one ``np.bincount`` over partials
sorted by (gid, holder rank) -- is the same code path for the ``"flat"``
and ``"topology"`` algorithms.  The two algorithms therefore return
byte-identical fields and differ only in their logged traffic, which is
exactly the contract the equivalence property suite pins down to 0 ulp.

The per-(gid, rank) partial sums are sequential ``bincount``
accumulations in original copy order (over a stable sort), and the
owner reduction adds holder partials in ascending rank order from 0.0 --
the same arithmetic the per-rank
:class:`~repro.comm.distributed_gs.DistributedGatherScatter` performs on
its delivered buffers, so the two agree bit for bit, not merely
``allclose``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.costmodel import CommRound
from repro.comm.simworld import SimWorld

__all__ = [
    "NodeTopology",
    "exchange_rounds",
    "traffic_summary",
    "CopyIndex",
    "partitioned_index",
    "BatchedGatherScatter",
]

#: Wire size of one staged (gid, partial) entry: int64 id + float64 value.
ENTRY_BYTES = 16


@dataclass(frozen=True)
class NodeTopology:
    """Dense rank-to-node packing: ranks ``[k*rpn, (k+1)*rpn)`` share node ``k``."""

    n_ranks: int
    ranks_per_node: int

    def __post_init__(self) -> None:
        if self.n_ranks < 1 or self.ranks_per_node < 1:
            raise ValueError("need n_ranks >= 1 and ranks_per_node >= 1")

    @classmethod
    def for_machine(cls, machine, n_ranks: int) -> "NodeTopology":
        """Pack ``n_ranks`` with the machine's GPUs-per-node density."""
        return cls(n_ranks, machine.gpus_per_node)

    @property
    def n_nodes(self) -> int:
        return -(-self.n_ranks // self.ranks_per_node)

    def node_of(self, ranks: np.ndarray) -> np.ndarray:
        return np.asarray(ranks) // self.ranks_per_node

    def leader_of(self, ranks: np.ndarray) -> np.ndarray:
        """The lowest rank of each rank's node (the staging aggregator)."""
        return self.node_of(ranks) * self.ranks_per_node


def exchange_rounds(
    src: np.ndarray,
    dst: np.ndarray,
    entries: np.ndarray,
    n_ranks: int,
    topology: NodeTopology | None = None,
) -> tuple[list[CommRound], list[CommRound] | None]:
    """The flat and the staged rounds of one dssum.

    ``(src, dst, entries)`` are (holder, owner) edges, each carrying
    ``entries`` 16-byte (gid, value) entries; repeated edges are summed.
    Flat: every holder messages every remote owner directly, owners
    reply.  Staged (``None`` without a topology): entries whose owner
    shares the holder's node go rank-to-rank on the node-local links;
    remote entries climb to the holder's node leader (intra), travel
    leader-to-leader in one aggregated message per destination node
    (inter), and descend from the owner's leader (intra).  Replies mirror
    the stages in reverse.  Payload is conserved -- leaders concatenate
    entries, they never pre-reduce, which is what keeps the arithmetic
    identical to the flat path.
    """

    def messages(a, b, w):
        """One row per distinct (a, b) edge, sorted, with its summed entries."""
        uniq, inv = np.unique(a * n_ranks + b, return_inverse=True)
        total = np.bincount(inv, weights=w, minlength=uniq.size).astype(np.int64)
        return uniq // n_ranks, uniq % n_ranks, total

    src, dst, entries = messages(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), entries
    )
    nbytes = entries * ENTRY_BYTES
    flat = [CommRound("gs.request", src, dst, nbytes), CommRound("gs.reply", dst, src, nbytes)]
    if topology is None:
        return flat, None
    same = topology.node_of(src) == topology.node_of(dst)
    r_src, r_dst, r_entries = src[~same], dst[~same], entries[~same]
    lead_src = topology.leader_of(r_src)
    lead_dst = topology.leader_of(r_dst)
    up = r_src != lead_src
    down = r_dst != lead_dst
    stages = [
        ("topo.intra", *messages(src[same], dst[same], entries[same])),
        ("topo.stage_up", *messages(r_src[up], lead_src[up], r_entries[up])),
        ("topo.stage_inter", *messages(lead_src, lead_dst, r_entries)),
        ("topo.stage_down", *messages(lead_dst[down], r_dst[down], r_entries[down])),
    ]
    staged = [CommRound(phase, s, d, c * ENTRY_BYTES) for phase, s, d, c in stages]
    staged += [
        CommRound(phase.replace("topo.", "topo.reply_"), d, s, c * ENTRY_BYTES)
        for phase, s, d, c in reversed(stages)
    ]
    return flat, staged


def traffic_summary(rounds: list[CommRound], topology: NodeTopology | None) -> dict[str, int]:
    """Messages/bytes of a round log, split intra/inter when a topology exists."""
    out = {
        "messages": sum(r.n_messages for r in rounds),
        "bytes": sum(r.total_bytes for r in rounds),
    }
    if topology is not None:
        intra_m = intra_b = inter_m = inter_b = 0
        for r in rounds:
            split = r.split_by_locality(topology)
            intra_m += split["intra"][0]
            intra_b += split["intra"][1]
            inter_m += split["inter"][0]
            inter_b += split["inter"][1]
        out.update(
            intra_messages=intra_m,
            intra_bytes=intra_b,
            inter_messages=inter_m,
            inter_bytes=inter_b,
        )
    return out


class CopyIndex:
    """Every node copy sorted by (gid, holder rank): the gather--scatter index.

    One stable sort of the copies by the fused integer key
    ``gid * n_ranks + rank`` -- the order of ``lexsort((copy_rank, ids))``
    at the cost of one 8-byte key.  Runs of equal (gid, rank) are the
    per-rank partial-sum *slots*, runs of equal gid the *holder groups*.
    The ``bincount`` of :meth:`partials` walks the copies in input order,
    so it accumulates each slot exactly as a rank-local ``bincount`` over
    that rank's copies would.  Both
    :class:`BatchedGatherScatter` and
    :class:`~repro.comm.distributed_gs.DistributedGatherScatter` reduce on it.
    """

    def __init__(self, ids: np.ndarray, copy_rank: np.ndarray) -> None:
        order = _copy_order(ids, copy_rank)
        gid_sorted = ids[order]
        rank_sorted = copy_rank[order]
        new_slot = np.empty(ids.size, dtype=bool)
        new_slot[0] = True
        new_slot[1:] = (gid_sorted[1:] != gid_sorted[:-1]) | (
            rank_sorted[1:] != rank_sorted[:-1]
        )
        slot_starts = np.flatnonzero(new_slot)
        self.slot_of_copy = np.empty(ids.size, dtype=np.int64)
        self.slot_of_copy[order] = np.cumsum(new_slot) - 1
        self.slot_rank = rank_sorted[slot_starts]
        self.slot_gid = gid_sorted[slot_starts]

        new_group = np.empty(self.slot_gid.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = self.slot_gid[1:] != self.slot_gid[:-1]
        self.group_of_slot = np.cumsum(new_group) - 1
        holders_per_group = np.bincount(self.group_of_slot)
        # Lowest holder rank owns -- first slot of each (gid-sorted) group.
        owner_rank_of_group = self.slot_rank[np.flatnonzero(new_group)]
        self.owner_of_slot = owner_rank_of_group[self.group_of_slot]
        self.shared_slot = (holders_per_group > 1)[self.group_of_slot]
        self.n_shared = int(np.count_nonzero(holders_per_group > 1))

    def partials(self, values: np.ndarray) -> np.ndarray:
        """Per-slot partial sums of per-copy ``values``, in original copy order.

        ``bincount``, not ``reduceat``: it accumulates strictly sequentially
        from 0.0 (``reduceat``'s slice reduction may reassociate), each
        slot's copies in input order -- the stable sort's order.
        """
        return np.bincount(self.slot_of_copy, weights=values, minlength=self.slot_rank.size)


def partitioned_index(
    global_ids: np.ndarray, owner: np.ndarray, shape: tuple[int, ...], world: SimWorld
) -> tuple[np.ndarray, np.ndarray, CopyIndex]:
    """Check a partition of a stacked ``shape`` field; index its node copies.

    Returns the owner array, the flat node ids and the :class:`CopyIndex`
    over the copies in element order, each held by its element's owner.
    """
    nelv = shape[0]
    pts = int(np.prod(shape[1:]))
    owner = np.asarray(owner, dtype=np.int64)
    if len(owner) != nelv:
        raise ValueError("owner must have one entry per element")
    if int(owner.max()) + 1 > world.size:
        raise ValueError("partition uses more ranks than the world has")
    ids = np.asarray(global_ids, dtype=np.int64).reshape(-1)
    if ids.size != nelv * pts:
        raise ValueError("global_ids must cover every point of every element")
    return owner, ids, CopyIndex(ids, np.repeat(owner, pts))


def _copy_order(ids: np.ndarray, copy_rank: np.ndarray) -> np.ndarray:
    """``lexsort((copy_rank, ids))`` as one stable sort of an int64 key."""
    n_ranks = int(copy_rank.max()) + 1
    return np.argsort(ids * n_ranks + copy_rank, kind="stable")


class BatchedGatherScatter:
    """Distributed dssum computed as batched index operations.

    Per-rank fields live stacked in one elementwise array (the
    "rank-batched state"): element ``e`` belongs to ``owner[e]``, and a
    rank's chunk is the sub-array of its elements.  Setup is a single
    stable sort of all node copies by (gid, holder rank); every
    ``add`` is two ``bincount`` passes plus one gather -- O(copies), with
    no per-rank Python objects, at 10^3..10^4 simulated ranks.

    Parameters
    ----------
    global_ids:
        Flat node numbering of the whole space (``nelv * pts`` entries).
    owner:
        Rank per element.
    shape:
        Elementwise field shape ``(nelv, ...)``.
    world:
        The :class:`~repro.comm.simworld.SimWorld`; each ``add`` replays
        its exchange rounds into the world's traffic stats.
    topology:
        Node packing for the ``"topology"`` algorithm (optional when
        only ``"flat"`` is used).
    """

    def __init__(
        self,
        global_ids: np.ndarray,
        owner: np.ndarray,
        shape: tuple[int, ...],
        world: SimWorld,
        topology: NodeTopology | None = None,
    ) -> None:
        if world.fault_injector is not None:
            raise ValueError(
                "the batched gather-scatter replays count-only exchange rounds "
                "and cannot exercise a fault injector; faulted runs use "
                "DistributedGatherScatter"
            )
        self.world = world
        self.topology = topology
        self.shape = tuple(shape)
        self.owner, _, self.index = partitioned_index(global_ids, owner, self.shape, world)

        # One staged entry per shared non-owner slot, collapsed to edges.
        idx = self.index
        moving = idx.shared_slot & (idx.slot_rank != idx.owner_of_slot)
        n = world.size
        edges, entries = np.unique(
            idx.slot_rank[moving] * n + idx.owner_of_slot[moving], return_counts=True
        )
        self._rounds_flat, self._rounds_topology = exchange_rounds(
            edges // n, edges % n, entries, n, topology
        )

    # -- traffic patterns (precomputed; replayed per add) -----------------------

    def rounds(self, algorithm: str = "topology") -> list[CommRound]:
        """The precomputed exchange rounds one ``add`` replays."""
        if algorithm == "flat":
            return self._rounds_flat
        if algorithm == "topology":
            if self._rounds_topology is None:
                raise ValueError("no NodeTopology attached; use algorithm='flat'")
            return self._rounds_topology
        raise ValueError(f"unknown gather-scatter algorithm {algorithm!r}")

    def traffic_summary(self, algorithm: str = "topology") -> dict[str, int]:
        """Messages/bytes per add, split intra/inter when a topology exists."""
        return traffic_summary(self.rounds(algorithm), self.topology)

    # -- the operation ----------------------------------------------------------

    def add(self, u: np.ndarray, algorithm: str = "topology") -> np.ndarray:
        """Dssum of a full stacked field; returns a new field.

        The arithmetic is algorithm-independent (see the module docstring);
        ``algorithm`` selects which traffic pattern is replayed into the
        world's stats.
        """
        rounds = self.rounds(algorithm)
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != {self.shape}")
        idx = self.index
        # Phase 1: per-(gid, rank) partials in original copy order.
        partial = idx.partials(u.reshape(-1))
        # Phase 2: owner reduction over holders in ascending rank order,
        # sequential from 0.0 like the partials.
        totals = np.bincount(idx.group_of_slot, weights=partial)
        out = totals[idx.group_of_slot][idx.slot_of_copy].reshape(u.shape)
        for round_ in rounds:
            self.world.exchange_batched(
                round_.src, round_.dst, round_.nbytes, phase=round_.phase
            )
        return out

    # -- analytics helpers ------------------------------------------------------

    def rank_element_counts(self) -> np.ndarray:
        """Elements per rank (the compute-side imbalance input)."""
        return np.bincount(self.owner, minlength=self.world.size)
