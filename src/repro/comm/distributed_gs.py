"""Two-phase distributed gather--scatter over a simulated partition.

The structure follows the paper's description: "the gather-scatter is ...
carried out in two phases, one for the local and one for the shared
elements between different MPI ranks".

Phase 1 (local): each rank reduces its own copies of every node it holds.
All ranks' chunks are reduced at once by one ``bincount`` over the
:class:`~repro.comm.topology.CopyIndex` (node copies sorted by gid, then
holder rank), which sums every (gid, rank) slot in the rank's own copy
order -- exactly what a rank-local ``bincount`` does.

Phase 2 (shared): every holder sends the partials of its shared nodes to
each node's owner (the lowest holder rank) as one float64 ``(n, 2)``
``(gid, value)`` buffer per (holder, owner) edge; the owner sums them in
ascending holder order from 0.0 and replies with the totals.  Both rounds
are real buffers through :meth:`~repro.comm.simworld.SimWorld.exchange`,
so the fault injector and the reliable channel see every message, and
the traffic counters can be asserted on and fed to the performance model.
The received values are read by position: the message layouts are fixed
at construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.comm.simworld import SimWorld
from repro.comm.topology import CopyIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.sem.coef import Coefficients

__all__ = ["DistributedGatherScatter"]


class _RankCoef:
    """One rank's slice of what the ``ax_*`` kernels read: ``g_stack()``, ``mass``."""

    __slots__ = ("_g", "mass")

    def __init__(self, g: np.ndarray, mass: np.ndarray) -> None:
        self._g = g
        self.mass = mass

    def g_stack(self) -> np.ndarray:
        return self._g


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
    """Gather--scatter split across simulated ranks.

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
        nelv = self.shape[0]
        pts = int(np.prod(self.shape[1:]))
        self.owner = np.asarray(owner, dtype=np.int64)
        if len(self.owner) != nelv:
            raise ValueError("owner must have one entry per element")
        if int(self.owner.max()) + 1 > world.size:
            raise ValueError("partition uses more ranks than the world has")

        # Per-rank element lists (one stable sort instead of an O(ranks *
        # nelv) scan of `owner == r` per rank).
        elem_order = np.argsort(self.owner, kind="stable")
        elem_counts = np.bincount(self.owner, minlength=world.size)
        self.rank_elements = np.split(elem_order, np.cumsum(elem_counts)[:-1])

        # Node copies stacked rank after rank, each rank's in chunk order.
        ids = np.asarray(global_ids, dtype=np.int64).reshape(nelv, pts)[elem_order].reshape(-1)
        copies = elem_counts * pts
        self._chunk_bounds = np.cumsum(copies)[:-1]
        self.index = idx = CopyIndex(ids, np.repeat(np.arange(world.size), copies))
        self.n_shared = idx.n_shared

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

        # Per-rank ``1 / global multiplicity`` of every local point (dot weights).
        self._inv_mult = np.split(1.0 / np.bincount(ids)[ids], self._chunk_bounds)

    # -- data layout helpers ---------------------------------------------------

    def scatter_field(self, u: np.ndarray) -> list[np.ndarray]:
        """Split a full elementwise field into per-rank chunks."""
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != {self.shape}")
        return [u[elements] for elements in self.rank_elements]

    def gather_field(self, chunks: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank chunks into a full elementwise field."""
        out = np.empty(self.shape)
        for r, chunk in enumerate(chunks):
            out[self.rank_elements[r]] = chunk
        return out

    def scatter_coef(self, coef: Coefficients) -> list[_RankCoef]:
        """Per-rank slices of the stacked metric and the mass.

        Each carries what the ``ax_*`` kernels read from a
        :class:`~repro.sem.coef.Coefficients` -- ``g_stack()`` and ``mass``
        -- so a rank-local operator is ``ax_helmholtz(chunk, coefs[rank], ...)``.
        """
        g = coef.g_stack()
        # The metric stack is (..., npts); view it per element to slice ranks.
        g_elements = g.reshape(g.shape[:-1] + (self.shape[0], -1))
        return [
            _RankCoef(g_elements[..., elements, :].reshape(g.shape[:-1] + (-1,)), mass)
            for elements, mass in zip(self.rank_elements, self.scatter_field(coef.mass))
        ]

    # -- the operation -----------------------------------------------------------

    def add(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        """Distributed dssum; returns new per-rank chunks."""
        # Phase 1: every rank's partial sums, one bincount.
        partial = self.index.partials(np.concatenate([c.reshape(-1) for c in chunks]))
        # Phase 2: partials to the owners, owners sum in holder order, reply.
        got = self._requests.send(self.world, partial[self._request_slots])
        totals = np.bincount(self._request_groups, weights=got)
        partial[self._reply_slots] = self._replies.send(
            self.world, totals[self._reply_groups]
        )
        out = np.split(partial[self.index.slot_of_copy], self._chunk_bounds)
        return [o.reshape(c.shape) for o, c in zip(out, chunks)]

    def add_full(self, u: np.ndarray) -> np.ndarray:
        """Convenience: full-field in, full-field out."""
        return self.gather_field(self.add(self.scatter_field(u)))

    def dot(self, a_chunks: list[np.ndarray], b_chunks: list[np.ndarray]) -> float:
        """Unique-dof inner product: local weighted dots + one allreduce."""
        locals_ = [
            float(np.sum(a.reshape(-1) * b.reshape(-1) * w))
            for a, b, w in zip(a_chunks, b_chunks, self._inv_mult)
        ]
        return self.world.allreduce_scalar(locals_)
