"""Gather--scatter: the C^0-continuity operation of the SEM.

Duplicated degrees of freedom on shared element faces/edges/vertices are
combined (summed, min-ed, ...) and redistributed.  This is the single
communication primitive the whole solver is built on -- the paper calls it
"the key component of the scalability in Neko".

The single-process implementation here derives the global numbering from
node *coordinates* (with an optional periodic wrapping), which handles any
conforming mesh without explicit topology, and executes the operation as a
``bincount`` gather followed by a fancy-indexing scatter -- both memory-
bandwidth-bound, matching the character of the real kernel.  The two-phase
(rank-local / shared) variant used by the rank simulator lives in
:mod:`repro.comm.distributed_gs`.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from time import perf_counter

import numpy as np

__all__ = ["GatherScatter", "build_global_numbering"]


def build_global_numbering(
    coords: np.ndarray,
    periodic_image: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float | None = None,
) -> tuple[np.ndarray, int]:
    """Assign a global id to every node, identifying coincident coordinates.

    Parameters
    ----------
    coords:
        ``(n, 3)`` node coordinates (duplicates across element boundaries).
    periodic_image:
        Optional canonicalization applied before matching (implements
        periodic directions by wrapping one side onto the other).
    tol:
        Quantum of the match: two nodes share an id exactly when every
        coordinate rounds to the same multiple of ``tol``.  By default it is
        10^-4 of the smallest nonzero gap between coordinate values along
        any axis (at least 1e-12), so distinct nodes, at least 10^4 ``tol``
        apart, never merge.

    Returns
    -------
    (global_ids, n_global)
        Ids number the distinct quantised coordinates in lexicographic order
        (x first) -- the numbering ``np.unique(quant, axis=0,
        return_inverse=True)`` gives, from one ``lexsort`` of the three
        integer columns.
    """
    quant = _quantised(coords, periodic_image, tol)
    order = np.lexsort((quant[:, 2], quant[:, 1], quant[:, 0]))
    ordered = quant[order]
    new_node = np.empty(len(order), dtype=bool)
    new_node[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new_node[1:])
    global_ids = np.empty(len(order), dtype=np.int64)
    global_ids[order] = np.cumsum(new_node) - 1
    return global_ids, int(global_ids[order[-1]]) + 1


def _quantised(
    coords: np.ndarray,
    periodic_image: Callable[[np.ndarray], np.ndarray] | None,
    tol: float | None,
) -> np.ndarray:
    """The ``(n, 3)`` integer multiples of ``tol`` that :func:`build_global_numbering` sorts."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    if periodic_image is not None:
        coords = periodic_image(coords)
    if tol is None:
        # Smallest nonzero spacing along any axis bounds how close two
        # *distinct* nodes can be; use a small fraction of it.
        spacing = np.inf
        for d in range(3):
            vals = np.unique(np.round(coords[:, d], decimals=12))
            if len(vals) > 1:
                spacing = min(spacing, float(np.min(np.diff(vals))))
        if not np.isfinite(spacing):
            spacing = 1.0
        tol = max(spacing * 1e-4, 1e-12)
    return np.round(coords / tol).astype(np.int64)


class GatherScatter:
    """Gather--scatter operator for a fixed global numbering.

    Construct once per function space; apply with :meth:`add` (dssum),
    :meth:`min`, :meth:`max`, or :meth:`average`.
    """

    def __init__(
        self,
        coords: np.ndarray,
        shape: tuple[int, ...],
        periodic_image: Callable[[np.ndarray], np.ndarray] | None = None,
        tol: float | None = None,
    ) -> None:
        self.shape = tuple(shape)
        self.global_ids, self.n_global = build_global_numbering(coords, periodic_image, tol)
        if self.global_ids.shape[0] != int(np.prod(self.shape)):
            raise ValueError(
                f"coords count {self.global_ids.shape[0]} does not match field "
                f"shape {self.shape}"
            )
        mult = np.bincount(self.global_ids, minlength=self.n_global).astype(np.float64)
        self.multiplicity = mult[self.global_ids].reshape(self.shape)
        self._inv_multiplicity = 1.0 / self.multiplicity
        # Nodes with multiplicity 1 are element-interior; the shared set is
        # what a distributed implementation would communicate.
        self.n_shared = int(np.count_nonzero(mult > 1))
        # Traffic accounting (read by the observability layer): dssum call
        # count, bytes moved (gather + scatter) and accumulated wall time.
        # Updated under a lock: a step's worker thread (repro.core.overlap)
        # adds beside the caller, and each update is a read-modify-write.
        self.calls = 0
        self.bytes_moved = 0
        self.seconds = 0.0
        self._lock = threading.Lock()

    # -- core operations ---------------------------------------------------

    def add(self, u: np.ndarray) -> np.ndarray:
        """Direct-stiffness summation: sum duplicated dofs, redistribute."""
        t0 = perf_counter()
        flat = u.reshape(-1)
        acc = np.bincount(self.global_ids, weights=flat, minlength=self.n_global)
        out = acc[self.global_ids].reshape(u.shape)
        elapsed = perf_counter() - t0
        with self._lock:
            self.calls += 1
            self.bytes_moved += 2 * u.nbytes
            self.seconds += elapsed
        return out

    def min(self, u: np.ndarray) -> np.ndarray:
        """Minimum over duplicated dofs (used to combine boundary masks)."""
        acc = np.full(self.n_global, np.inf)
        np.minimum.at(acc, self.global_ids, u.reshape(-1))
        return acc[self.global_ids].reshape(u.shape)

    def max(self, u: np.ndarray) -> np.ndarray:
        """Maximum over duplicated dofs."""
        acc = np.full(self.n_global, -np.inf)
        np.maximum.at(acc, self.global_ids, u.reshape(-1))
        return acc[self.global_ids].reshape(u.shape)

    def average(self, u: np.ndarray) -> np.ndarray:
        """dssum followed by division by multiplicity (a projection onto C^0)."""
        return self.add(u) * self._inv_multiplicity

    # -- reductions over unique dofs ----------------------------------------

    def gather_unique(self, u: np.ndarray, reduce_duplicates: bool = False) -> np.ndarray:
        """Values per *unique* global dof.

        With ``reduce_duplicates`` the duplicated entries are summed (correct
        for additively-stored data such as residuals); otherwise the first
        occurrence is taken (correct for continuous fields).
        """
        flat = u.reshape(-1)
        if reduce_duplicates:
            return np.bincount(self.global_ids, weights=flat, minlength=self.n_global)
        out = np.empty(self.n_global)
        # Reversed so the *first* occurrence wins.
        out[self.global_ids[::-1]] = flat[::-1]
        return out

    def scatter_unique(self, ug: np.ndarray) -> np.ndarray:
        """Distribute per-unique-dof values back to the elementwise layout."""
        if ug.shape != (self.n_global,):
            raise ValueError(f"expected shape ({self.n_global},), got {ug.shape}")
        return ug[self.global_ids].reshape(self.shape)

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Inner product counting every unique dof exactly once.

        The multiplicity division makes the duplicated elementwise storage
        consistent with a sum over unique dofs, which is what the distributed
        code computes with a local dot plus an allreduce.  (Integrals against
        the *unassembled* mass matrix, by contrast, are plain elementwise sums
        because each duplicate carries a partial quadrature contribution.)

        Computed as one pointwise scale plus a BLAS ``dot`` -- measurably
        faster than the naive ``sum(u * v * w)`` triple product on the
        Gram--Schmidt hot path (thousands of calls per step).
        """
        return float(np.dot((u * self._inv_multiplicity).reshape(-1), v.reshape(-1)))

    @property
    def inv_multiplicity(self) -> np.ndarray:
        """Pointwise ``1 / multiplicity`` -- the weight of :meth:`dot`.

        Also the counting weight that makes a residual's restriction to a
        coarser level the transpose of prolongation
        (:class:`~repro.precond.hsmg.HybridSchwarzMultigrid`).
        """
        return self._inv_multiplicity
