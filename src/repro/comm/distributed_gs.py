"""Two-phase distributed gather--scatter over a simulated partition.

The structure follows the paper's description: "the gather-scatter is ...
carried out in two phases, one for the local and one for the shared
elements between different MPI ranks".

Phase 1 (local): each rank reduces its own copies of every node it holds
(a rank-local ``bincount``).

Phase 2 (shared): nodes with copies on multiple ranks exchange their
partial sums point-to-point with the owner rank, which reduces in rank
order (deterministic!) and returns the result.  Traffic flows through a
:class:`~repro.comm.simworld.SimWorld`, so the message/byte counters can
be asserted on and fed to the performance model.
"""

from __future__ import annotations

import numpy as np

from repro.comm.simworld import SimWorld

__all__ = ["DistributedGatherScatter"]


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

        ids = np.asarray(global_ids, dtype=np.int64).reshape(nelv, pts)
        self.n_global = int(ids.max()) + 1

        # Per-rank element lists (one stable sort instead of an O(ranks *
        # nelv) scan of `owner == r` per rank) and local numbering.
        elem_order = np.argsort(self.owner, kind="stable")
        elem_counts = np.bincount(self.owner, minlength=world.size)
        self.rank_elements = np.split(elem_order, np.cumsum(elem_counts)[:-1])
        self.local_ids: list[np.ndarray] = []
        self.local_unique: list[np.ndarray] = []  # local slot -> global id
        for r in range(world.size):
            gid = ids[self.rank_elements[r]].reshape(-1)
            uniq, inv = np.unique(gid, return_inverse=True)
            self.local_unique.append(uniq)
            self.local_ids.append(inv)

        # Which global ids are shared between ranks, and who holds them.
        # local_unique[r] is already deduplicated and sorted per rank, so
        # concatenating the per-rank id lists and sorting by (gid, rank)
        # yields each id's holder list as one contiguous ascending run --
        # no per-id Python dict churn.
        pair_gid = np.concatenate(self.local_unique) if world.size else np.zeros(0, np.int64)
        pair_rank = np.repeat(
            np.arange(world.size, dtype=np.int64),
            [len(u) for u in self.local_unique],
        )
        order = np.lexsort((pair_rank, pair_gid))
        pair_gid, pair_rank = pair_gid[order], pair_rank[order]
        new_gid = np.empty(pair_gid.size, dtype=bool)
        if pair_gid.size:
            new_gid[0] = True
            new_gid[1:] = pair_gid[1:] != pair_gid[:-1]
        run_starts = np.flatnonzero(new_gid)
        run_lengths = np.diff(np.append(run_starts, pair_gid.size))
        shared_run = run_lengths > 1
        self.shared_ids = pair_gid[run_starts[shared_run]]
        # Lowest-rank holder owns; runs are rank-ascending, so that is the
        # run head.  The holder lists stay dicts for API compatibility.
        self.shared_owner = dict(
            zip(
                self.shared_ids.tolist(),
                pair_rank[run_starts[shared_run]].tolist(),
            )
        )
        holder_runs = np.split(pair_rank, run_starts[1:])
        self.shared_holders = {
            int(g): holder_runs[i].tolist()
            for g, i in zip(self.shared_ids, np.flatnonzero(shared_run))
        }

        # Per-rank index of its shared slots (positions into local_unique):
        # both sides are sorted-unique, so membership is a binary search.
        self.rank_shared_slots = [
            np.flatnonzero(np.isin(self.local_unique[r], self.shared_ids, assume_unique=True))
            for r in range(world.size)
        ]

        self.n_shared = len(self.shared_ids)

    # -- data layout helpers ---------------------------------------------------

    def scatter_field(self, u: np.ndarray) -> list[np.ndarray]:
        """Split a full elementwise field into per-rank chunks."""
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != {self.shape}")
        return [u[self.rank_elements[r]].copy() for r in range(self.world.size)]

    def gather_field(self, chunks: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank chunks into a full elementwise field."""
        out = np.empty(self.shape)
        for r, chunk in enumerate(chunks):
            out[self.rank_elements[r]] = chunk
        return out

    # -- the operation -----------------------------------------------------------

    def add(self, chunks: list[np.ndarray], algorithm: str = "two_phase") -> list[np.ndarray]:
        """Distributed dssum; returns new per-rank chunks.

        ``algorithm`` selects the shared-phase communication pattern:

        * ``"two_phase"`` -- partial sums travel to the owner rank, which
          reduces and replies (two communication rounds, fewest messages);
        * ``"one_sided"`` -- every holder *puts* its partials directly into
          all other holders' windows and each reduces locally (one round,
          more messages) -- the Coarray-Fortran/SHMEM style gather-scatter
          the paper reports as under development.

        Both produce bit-identical results (reduction in rank order).
        """
        if algorithm == "one_sided":
            return self._add_one_sided(chunks)
        if algorithm != "two_phase":
            raise ValueError(f"unknown gather-scatter algorithm {algorithm!r}")
        world = self.world
        # Phase 1: rank-local reduction.
        local_sums = self._local_sums(chunks)

        # Phase 2: exchange partial sums of shared nodes with the owners.
        sends: dict[tuple[int, int], np.ndarray] = {}
        for r in range(world.size):
            slots = self.rank_shared_slots[r]
            if len(slots) == 0:
                continue
            gids = self.local_unique[r][slots]
            vals = local_sums[r][slots]
            by_owner: dict[int, list[tuple[int, float]]] = {}
            for g, v in zip(gids, vals):
                o = self.shared_owner[int(g)]
                by_owner.setdefault(o, []).append((int(g), float(v)))
            for o, pairs in by_owner.items():
                arr = np.array(pairs, dtype=np.float64)
                sends[(r, o)] = arr
        delivered = world.exchange(sends)

        # Owners reduce in rank order (deterministic), then send results back.
        totals: dict[int, float] = {}
        for (src, _dst), arr in sorted(delivered.items()):
            for g, v in arr:
                totals[int(g)] = totals.get(int(g), 0.0) + v

        replies: dict[tuple[int, int], np.ndarray] = {}
        for g in self.shared_ids:
            gi = int(g)
            o = self.shared_owner[gi]
            for h in self.shared_holders[gi]:
                key = (o, h)
                replies.setdefault(key, [])
                replies[key].append((gi, totals[gi]))
        replies = {k: np.array(v, dtype=np.float64) for k, v in replies.items()}
        delivered_back = world.exchange(replies)

        # Install the reduced shared values.
        out_chunks = []
        for r in range(world.size):
            s = local_sums[r]
            slot_of = {int(g): i for i, g in enumerate(self.local_unique[r])}
            for (o, dst), arr in delivered_back.items():
                if dst != r:
                    continue
                for g, v in arr:
                    s[slot_of[int(g)]] = v
            out_chunks.append(s[self.local_ids[r]].reshape(chunks[r].shape))
        return out_chunks

    def _local_sums(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        return [
            np.bincount(
                self.local_ids[r], weights=chunk.reshape(-1),
                minlength=len(self.local_unique[r]),
            )
            for r, chunk in enumerate(chunks)
        ]

    def _add_one_sided(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        """One-round PUT-style shared phase (symmetric all-to-all of holders)."""
        world = self.world
        local_sums = self._local_sums(chunks)

        # Every holder puts its partial for each shared id to every other
        # holder, in one round.
        sends: dict[tuple[int, int], list[tuple[int, float]]] = {}
        slot_of = [
            {int(g): i for i, g in enumerate(self.local_unique[r])}
            for r in range(world.size)
        ]
        for g in self.shared_ids:
            gi = int(g)
            holders = self.shared_holders[gi]
            for src in holders:
                val = float(local_sums[src][slot_of[src][gi]])
                for dst in holders:
                    if dst == src:
                        continue
                    sends.setdefault((src, dst), []).append((gi, val))
        delivered = world.exchange(
            {k: np.array(v, dtype=np.float64) for k, v in sends.items()}
        )

        # Local reduction in rank order for determinism: contributions are
        # sorted by source rank with the own value inserted at its rank
        # position, so every holder sums in the same order.
        per_dst_gid: dict[tuple[int, int], list[tuple[int, float]]] = {}
        for (src, dst), arr in delivered.items():
            for g, v in arr:
                per_dst_gid.setdefault((dst, int(g)), []).append((src, float(v)))

        out_chunks = []
        for r in range(world.size):
            s = local_sums[r].copy()
            for gi_slot, gi in ((slot_of[r][int(g)], int(g)) for g in self.shared_ids
                                if int(g) in slot_of[r]):
                contribs = per_dst_gid.get((r, gi), [])
                contribs.append((r, float(local_sums[r][gi_slot])))
                contribs.sort(key=lambda sv: sv[0])
                s[gi_slot] = sum(v for _, v in contribs)
            out_chunks.append(s[self.local_ids[r]].reshape(chunks[r].shape))
        return out_chunks

    def add_full(self, u: np.ndarray, algorithm: str = "two_phase") -> np.ndarray:
        """Convenience: full-field in, full-field out."""
        return self.gather_field(self.add(self.scatter_field(u), algorithm=algorithm))

    def dot(self, a_chunks: list[np.ndarray], b_chunks: list[np.ndarray]) -> float:
        """Unique-dof inner product: local weighted dots + one allreduce."""
        locals_ = [
            float(np.sum(a.reshape(-1) * b.reshape(-1) * w))
            for a, b, w in zip(a_chunks, b_chunks, self._inv_multiplicity())
        ]
        return self.world.allreduce_scalar(locals_)

    def _inv_multiplicity(self) -> list[np.ndarray]:
        """Per-rank ``1 / global multiplicity`` of every local point (built once)."""
        if not hasattr(self, "_inv_mult"):
            gmult = self._global_multiplicity()
            self._inv_mult = [
                (1.0 / gmult[uniq])[ids] for uniq, ids in zip(self.local_unique, self.local_ids)
            ]
        return self._inv_mult

    def _global_multiplicity(self) -> np.ndarray:
        if not hasattr(self, "_gmult"):
            counts = np.zeros(self.n_global)
            for r in range(self.world.size):
                counts += np.bincount(
                    self.local_unique[r][self.local_ids[r]], minlength=self.n_global
                )
            self._gmult = counts
        return self._gmult
