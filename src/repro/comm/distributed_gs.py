"""Two-phase distributed gather--scatter over a simulated partition.

The structure follows the paper's description: "the gather-scatter is ...
carried out in two phases, one for the local and one for the shared
elements between different MPI ranks".

Fields are full stacked ``(nelv, lx, lx, lx)`` arrays in element order,
as for :class:`~repro.sem.gather_scatter.GatherScatter`; element ``e``
lives on rank ``owner[e]``.  Phase 1 (local): each rank reduces its own
copies of every node it holds.  All ranks are reduced at once by one
``bincount`` over the :class:`~repro.comm.topology.CopyIndex` (node copies
sorted by gid, then holder rank), which sums every (gid, rank) slot in
the rank's own copy order -- exactly what a rank-local ``bincount`` does.

Phase 2 (shared): every holder sends the partials of its shared nodes to
each node's owner (the lowest holder rank) as one float64 ``(n, 2)``
``(gid, value)`` buffer per (holder, owner) edge; the owner sums them in
ascending holder order from 0.0 and replies with the totals.  Both rounds
are real buffers through :meth:`~repro.comm.simworld.SimWorld.exchange`,
so the fault injector and the reliable channel see every message, and
the traffic counters can be asserted on and fed to the performance model.
The received values are read by position: the message layouts are fixed
at construction.

Swapped into a :class:`~repro.sem.space.FunctionSpace`'s ``gs``
(:func:`repro.core.simulation.distribute`), it runs the one
:class:`~repro.core.simulation.Simulation` on the ranks: stepping reads
``add``, ``dot`` (through ``space.dot``) and the ``calls`` /
``bytes_moved`` / ``seconds`` counters, and the checkpoint is
:meth:`DistributedGatherScatter.split_state` -- one shard per rank -- and
:meth:`DistributedGatherScatter.join_state`, a warm replacement of the
world.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from time import perf_counter

import numpy as np

from repro.comm.simworld import SimWorld
from repro.comm.topology import partitioned_index

__all__ = ["DistributedGatherScatter"]


class _Messages:
    """A fixed exchange round: (gid, value) entries cut into per-edge buffers."""

    def __init__(self, src: np.ndarray, dst: np.ndarray, gid: np.ndarray) -> None:
        starts = np.flatnonzero(
            np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])]
        ) if src.size else np.zeros(0, dtype=np.int64)
        self.edges = list(zip(src[starts].tolist(), dst[starts].tolist()))
        self.bounds = list(zip(starts.tolist(), starts[1:].tolist() + [src.size]))
        self.gid = gid.astype(np.float64)

    def send(self, world: SimWorld, values: np.ndarray) -> np.ndarray:
        """Exchange ``values`` (entry order); returns the delivered values."""
        buf = np.column_stack((self.gid, values))
        delivered = world.exchange(
            {edge: buf[a:b] for edge, (a, b) in zip(self.edges, self.bounds)}
        )
        got = [arr[:, 1] for arr in delivered.values()]
        return np.concatenate(got) if got else values


class DistributedGatherScatter:
    """Gather--scatter split across simulated ranks, on full stacked fields.

    ``add`` and ``dot`` take the fields
    :class:`~repro.sem.gather_scatter.GatherScatter` takes, so the one
    :class:`~repro.solvers.cg.ConjugateGradient` runs on the ranks with
    ``dot=dgs.dot``, and the one ``Simulation`` with ``space.gs = dgs``.
    :meth:`scatter_field` / :meth:`gather_field` convert to and from
    per-rank chunks (a rank's elements in ascending order), the layout of
    checkpoint shards.

    Parameters
    ----------
    global_ids:
        Flat node numbering of the *whole* space (as built by the
        single-rank :class:`~repro.sem.gather_scatter.GatherScatter`).
    owner:
        Rank per element.
    shape:
        Elementwise shape ``(nelv, lx, lx, lx)`` of the full field.
    world:
        The rank world (supplies traffic accounting).
    """

    def __init__(
        self,
        global_ids: np.ndarray,
        owner: np.ndarray,
        shape: tuple[int, ...],
        world: SimWorld,
    ) -> None:
        self.world = world
        self.shape = tuple(shape)
        self.owner, ids, idx = partitioned_index(global_ids, owner, self.shape, world)
        self.index = idx
        self.n_shared = idx.n_shared

        # Elements rank after rank, each rank's in ascending order.
        self._rank_order = np.argsort(self.owner, kind="stable")
        elem_bounds = np.cumsum(np.bincount(self.owner, minlength=world.size))[:-1]
        self.rank_elements = np.split(self._rank_order, elem_bounds)
        self._rank_bounds = elem_bounds * int(np.prod(self.shape[1:]))

        # One entry per shared slot, in both rounds.  Requests are ordered
        # by (holder, first gid of the edge, gid), replies by (first gid of
        # the edge, holder, gid): the edge order of the owner-centric
        # exchange, entries ascending by gid inside every buffer.  Request
        # order lists each gid's holders in ascending rank order, so one
        # bincount over the delivered requests sums them in that order.
        shared = np.flatnonzero(idx.shared_slot)
        holder = idx.slot_rank[shared]
        owner_rank = idx.owner_of_slot[shared]
        gid = idx.slot_gid[shared]
        _, first, edge = np.unique(
            holder * world.size + owner_rank, return_index=True, return_inverse=True
        )
        first_gid = gid[first][edge]
        req = np.lexsort((gid, first_gid, holder))
        rep = np.lexsort((gid, holder, first_gid))
        self._requests = _Messages(holder[req], owner_rank[req], gid[req])
        self._replies = _Messages(owner_rank[rep], holder[rep], gid[rep])
        self._request_slots = shared[req]
        self._request_groups = idx.group_of_slot[self._request_slots]
        self._reply_slots = shared[rep]
        self._reply_groups = idx.group_of_slot[self._reply_slots]

        # ``1 / global multiplicity`` of every point (the dot weights).
        self._inv_mult = (1.0 / np.bincount(ids)[ids]).reshape(self.shape)
        # GatherScatter's dssum counters, read by ``Simulation.step``.  The
        # world is single-threaded, so a partitioned run steps inline and
        # needs no lock.
        self.calls = 0
        self.bytes_moved = 0
        self.seconds = 0.0

    # -- per-rank chunks ---------------------------------------------------------

    def scatter_field(self, u: np.ndarray) -> list[np.ndarray]:
        """Split a full elementwise field into per-rank chunks."""
        self._check(u)
        return [u[elements] for elements in self.rank_elements]

    def gather_field(self, chunks: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank chunks into a full elementwise field."""
        out = np.empty(self.shape)
        for elements, chunk in zip(self.rank_elements, chunks):
            out[elements] = chunk
        return out

    def _check(self, u: np.ndarray) -> None:
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != {self.shape}")

    # -- checkpoint shards -------------------------------------------------------

    def split_state(self, arrays: Mapping[str, np.ndarray]) -> list[dict[str, np.ndarray]]:
        """A state mapping as a checkpoint epoch: one shard per rank.

        Taken after the epoch's commit barrier: a rank that dies in it
        raises before anything is cut, so the previous epoch stays the
        newest.  Full fields are cut by :meth:`scatter_field`; every other
        array is copied into every shard.
        """
        self.world.barrier()
        shards: list[dict[str, np.ndarray]] = [{} for _ in self.rank_elements]
        for name, value in arrays.items():
            if np.shape(value) == self.shape:
                chunks = self.scatter_field(value)
            else:
                chunks = [np.array(value, copy=True) for _ in shards]
            for shard, chunk in zip(shards, chunks):
                shard[name] = chunk
        return shards

    def join_state(self, shards: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
        """Warm replacement: a fresh world, then the epoch's state reassembled.

        The shards come from disk, so an epoch written by a world of another
        size raises ``ValueError`` before anything changes.  The new world
        of the same size keeps the old one's injector, retry and verify
        settings and carries on its traffic totals; rank r's chunks come
        from shard r, every other array from shard 0.
        """
        old = self.world
        if len(shards) != old.size:
            raise ValueError(
                f"epoch has {len(shards)} shards for a world of {old.size} ranks"
            )
        self.world = SimWorld(
            old.size,
            fault_injector=old.fault_injector,
            retry=old.retry,
            verify_collectives=old.verify_collectives,
        )
        self.world.stats.absorb(old.stats)
        chunk_shape = (len(self.rank_elements[0]), *self.shape[1:])
        return {
            name: self.gather_field([shard[name] for shard in shards])
            if np.shape(value) == chunk_shape
            else value
            for name, value in shards[0].items()
        }

    # -- the operations ----------------------------------------------------------

    def add(self, u: np.ndarray) -> np.ndarray:
        """Distributed dssum of a full field; returns a new field."""
        t0 = perf_counter()
        self._check(u)
        # Phase 1: every rank's partial sums, one bincount.
        partial = self.index.partials(u.reshape(-1))
        # Phase 2: partials to the owners, owners sum in holder order, reply.
        got = self._requests.send(self.world, partial[self._request_slots])
        totals = np.bincount(self._request_groups, weights=got)
        partial[self._reply_slots] = self._replies.send(
            self.world, totals[self._reply_groups]
        )
        out = partial[self.index.slot_of_copy].reshape(self.shape)
        self.calls += 1
        self.bytes_moved += 2 * u.nbytes
        self.seconds += perf_counter() - t0
        return out

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Unique-dof inner product: local weighted dots + one allreduce.

        Each rank sums ``a * b * w`` over its own elements in ascending
        order, as a rank-local ``np.sum`` over its chunk does.
        """
        self._check(a)
        weighted = (a * b * self._inv_mult)[self._rank_order].reshape(-1)
        return self.world.allreduce_scalar(
            [float(np.sum(c)) for c in np.split(weighted, self._rank_bounds)]
        )
