"""Element partitioning for the simulated ranks.

Two strategies, both deterministic:

* linear -- elements in mesh order, contiguous chunks (what Neko does by
  default after mesh generation, relying on generator locality);
* recursive coordinate bisection (RCB) of element centroids -- a classic
  geometric partitioner producing compact subdomains and a good stand-in
  for the graph partitioning production meshes receive offline.
  :func:`rcb_from_centroids` exposes the same split on raw centroid
  arrays, which is how the scaling campaign partitions its synthetic
  structured meshes without building a :class:`~repro.sem.mesh.HexMesh`.

``partition_quality`` reports balance and the shared-node halo sizes that
drive the gather--scatter communication volume in the performance model,
read from the (gid, rank) slots of the gather--scatter's
:class:`~repro.comm.topology.CopyIndex`.
"""

from __future__ import annotations

import numpy as np

from repro.comm.topology import CopyIndex
from repro.sem.mesh import HexMesh

__all__ = [
    "linear_partition",
    "rcb_partition",
    "rcb_from_centroids",
    "partition_quality",
]


def linear_partition(nelv: int, nranks: int) -> np.ndarray:
    """Contiguous chunks of (as equal as possible) size; returns rank per element."""
    if nranks < 1 or nelv < 1:
        raise ValueError("need nelv >= 1 and nranks >= 1")
    if nranks > nelv:
        raise ValueError(f"more ranks ({nranks}) than elements ({nelv})")
    counts = np.full(nranks, nelv // nranks)
    counts[: nelv % nranks] += 1
    return np.repeat(np.arange(nranks), counts)


def _centroids(mesh: HexMesh) -> np.ndarray:
    return mesh.corner_coords.reshape(mesh.nelv, 8, 3).mean(axis=1)


def rcb_partition(mesh: HexMesh, nranks: int) -> np.ndarray:
    """Recursive coordinate bisection of element centroids.

    At each level the current element set splits along its longest
    coordinate extent at the median, with part sizes proportional to the
    number of ranks assigned to each side (handles non-power-of-two
    counts).
    """
    if nranks > mesh.nelv:
        raise ValueError(f"more ranks ({nranks}) than elements ({mesh.nelv})")
    return rcb_from_centroids(_centroids(mesh), nranks)


def rcb_from_centroids(cent: np.ndarray, nranks: int) -> np.ndarray:
    """RCB on a raw ``(nelv, ndim)`` centroid array; returns rank per element.

    Level-synchronous: every segment of one bisection level is sorted by
    one ``lexsort((coordinate, segment))`` of the element permutation.
    The sort is stable, so each segment orders its elements exactly as a
    recursive per-segment stable ``argsort`` would.
    """
    cent = np.asarray(cent, dtype=np.float64)
    nelv = cent.shape[0]
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    if nranks > nelv:
        raise ValueError(f"more ranks ({nranks}) than elements ({nelv})")
    # Contiguous segments of `perm`: length, first rank, rank count.
    perm = np.arange(nelv)
    seg_len = np.array([nelv])
    seg_rank = np.array([0])
    seg_nr = np.array([nranks])
    while (seg_nr > 1).any():
        starts = np.cumsum(seg_len) - seg_len
        seg = np.repeat(np.arange(seg_len.size), seg_len)
        pts = cent[perm]
        spans = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        axis = np.argmax(spans, axis=1)[seg]
        perm = perm[np.lexsort((pts[np.arange(nelv), axis], seg))]
        # Sides sized by their rank counts; np.round halves to even, like round().
        n_left_ranks = seg_nr // 2
        n_left = np.round(seg_len * n_left_ranks / seg_nr).astype(np.int64)
        n_left = np.minimum(np.maximum(n_left, n_left_ranks), seg_len - (seg_nr - n_left_ranks))
        n_left = np.where(seg_nr > 1, n_left, seg_len)
        n_left_ranks = np.where(seg_nr > 1, n_left_ranks, seg_nr)
        seg_len = np.stack([n_left, seg_len - n_left], axis=1).reshape(-1)
        seg_rank = np.stack([seg_rank, seg_rank + n_left_ranks], axis=1).reshape(-1)
        seg_nr = np.stack([n_left_ranks, seg_nr - n_left_ranks], axis=1).reshape(-1)
        keep = seg_len > 0
        seg_len, seg_rank, seg_nr = seg_len[keep], seg_rank[keep], seg_nr[keep]
    owner = np.empty(nelv, dtype=np.int64)
    owner[perm] = np.repeat(seg_rank, seg_len)
    return owner


def partition_quality(
    owner: np.ndarray, global_ids: np.ndarray, nelv: int, points_per_element: int
) -> dict[str, float]:
    """Balance and halo metrics of a partition.

    ``global_ids`` is the flat node numbering of the space (length
    ``nelv * points_per_element``).  A *shared* node is one whose copies
    live on more than one rank; the per-rank shared count is the message
    volume of the gather--scatter's network phase.
    """
    nranks = int(owner.max()) + 1
    counts = np.bincount(owner, minlength=nranks)
    idx = CopyIndex(
        np.asarray(global_ids, dtype=np.int64).reshape(-1),
        np.repeat(np.asarray(owner, dtype=np.int64), points_per_element),
    )
    shared_per_rank = np.bincount(
        idx.slot_rank[idx.shared_slot], minlength=nranks
    ).astype(np.float64)
    return {
        "n_ranks": float(nranks),
        "imbalance": float(counts.max() / counts.mean()),
        "shared_nodes_global": float(idx.n_shared),
        "max_shared_per_rank": float(shared_per_rank.max()),
        "avg_shared_per_rank": float(shared_per_rank.mean()),
    }
