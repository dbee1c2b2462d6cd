"""Coarse-grid solver: the ``R0^T A0^{-1} R0`` term of eq. (3).

The coarse space is the trilinear (Q1) finite-element space on the element
vertices.  Because Q1 is a subspace of the degree-N SEM space on every
element, the *Galerkin* coarse operator ``J^T A J`` equals the exactly
integrated Q1 stiffness matrix -- so that is what is assembled here (sparse,
with 2x2x2 Gauss quadrature, exact for trilinear geometry).  Using the
Galerkin-consistent operator matters: an under-integrated vertex Laplacian
over-corrects smooth modes and can push eigenvalues of ``M^{-1} A``
negative.

The solve factorizes the sparse coarse operator once (``splu``; the
singular pure-Neumann case is regularized by pinning vertex 0, which is exact
for consistent right-hand sides) and back-substitutes per application.
Assembly and factorization are shared through the operator cache.  The
paper's GPU runs use ~10 Jacobi-CG iterations here instead; that variant is
priced by :mod:`repro.gpu.schwarz`, not run.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from repro.precond.cache import CacheKey, OperatorCache, mask_fingerprint, resolve_cache
from repro.sem.basis import lagrange_interpolation_matrix
from repro.sem.dealias import interp3
from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace

__all__ = ["CoarseGridSolver", "q1_element_stiffness"]

# Below this many vertices the direct solver densifies the factorized
# inverse: one gemv (BLAS) replaces two sparse triangular solves, which at
# the coarse-space sizes of interest is ~4x faster per application for at
# most a few MB of memory.  Above the bound the triangular solves win on
# memory (the dense inverse grows quadratically) and the splu path is kept.
_DENSE_INVERSE_MAX_VERTICES = 1024

# Reference Q1 data: vertex order matches the (k, j, i) elementwise layout
# (index = 4 k + 2 j + i), i.e. corner signs (t, s, r).
_CORNER_SIGNS = np.array(
    [[t, s, r] for t in (-1.0, 1.0) for s in (-1.0, 1.0) for r in (-1.0, 1.0)]
)  # (8, 3) in (t, s, r) order


def _q1_reference() -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the 8 trilinear shape functions at the 2^3 Gauss points.

    Returns ``(dN, w)`` with ``dN`` of shape ``(8 qpoints, 8 basis, 3)`` --
    derivative directions ordered ``(t, s, r)`` to match the corner layout --
    and the quadrature weights (all 1 for the 2-point Gauss rule).
    """
    gp = 1.0 / np.sqrt(3.0)
    qpts = np.array([[t, s, r] for t in (-gp, gp) for s in (-gp, gp) for r in (-gp, gp)])
    nq = qpts.shape[0]
    dn = np.empty((nq, 8, 3))
    for q in range(nq):
        for i in range(8):
            sg = _CORNER_SIGNS[i]
            terms = (1.0 + sg * qpts[q]) / 2.0  # per-direction factors
            for d in range(3):
                prod = sg[d] / 2.0
                for d2 in range(3):
                    if d2 != d:
                        prod *= terms[d2]
                dn[q, i, d] = prod
    return dn, np.ones(nq)


def q1_element_stiffness(corner_coords: np.ndarray) -> np.ndarray:
    """Exactly integrated Q1 stiffness matrices, batched over elements.

    ``corner_coords`` is the mesh's ``(nelv, 2, 2, 2, 3)`` array; the result
    has shape ``(nelv, 8, 8)`` in the same vertex ordering.
    """
    dn, wq = _q1_reference()
    x = corner_coords.reshape(-1, 8, 3)  # (nelv, vertex, xyz)
    # Jacobian at each quadrature point: dx_b/dref_a.
    jmat = np.einsum("qia,eib->eqab", dn, x)
    det = np.linalg.det(jmat)
    # The (t, s, r) reference ordering is an odd permutation of (r, s, t),
    # so right-handed elements have det < 0 here; the stiffness integrand is
    # invariant under relabelling, only |det| enters.  A sign *change* inside
    # the mesh, however, means degenerate geometry.
    if np.any(det == 0.0) or (np.any(det > 0) and np.any(det < 0)):
        raise ValueError("coarse Q1 assembly found degenerate element Jacobians")
    det = np.abs(det)
    jinv = np.linalg.inv(jmat)  # (e, q, a, b): dref_a/dx_b
    # Physical gradients of shape functions: g[e,q,i,b].
    g = np.einsum("eqab,qia->eqib", jinv, dn)
    ke = np.einsum("eqib,eqjb,eq,q->eij", g, g, det, wq)
    return ke


class CoarseGridSolver:
    """Exact inverse of the Galerkin vertex-space Poisson operator.

    In the singular case the inverse is exact on mean-free vectors.

    Parameters
    ----------
    fine_space:
        The pressure space of the fine level.
    mask:
        Optional fine-level Dirichlet mask; when ``None`` the problem is
        singular (pure Neumann) and the constant mode is projected out.
    cache:
        Operator-cache handle for the assembly/factorization (``None`` =
        process-wide cache, ``False`` = private cold build).
    """

    def __init__(
        self,
        fine_space: FunctionSpace,
        mask: np.ndarray | None = None,
        cache: OperatorCache | bool | None = None,
    ) -> None:
        self.fine = fine_space
        self.coarse = FunctionSpace(fine_space.mesh, 2)
        fine_pts, _ = gll_points_weights(fine_space.lx)
        # Prolongation J: Q1 nodal values -> degree-N nodal values, and the
        # restriction J^T, transposed once here rather than per application.
        self.j_c2f = lagrange_interpolation_matrix(np.asarray(fine_pts), 2)
        self.j_f2c = np.ascontiguousarray(self.j_c2f.T)

        gs = self.coarse.gs
        self.n_vertices = gs.n_global
        self.singular = mask is None
        self._mask = mask

        key = CacheKey.for_space(fine_space, f"coarse[mask={mask_fingerprint(mask)}]")
        self._free, self.a0, self._lu, self._ainv = resolve_cache(cache).get_or_build(
            key, self._build_operator
        )
        self._all_free = bool(self._free.all())
        self._inv_mult = 1.0 / fine_space.gs.multiplicity

    def _build_operator(
        self,
    ) -> tuple[np.ndarray, scipy.sparse.csr_matrix, Any, np.ndarray | None]:
        """Assemble the Galerkin coarse operator and factorize it."""
        gs = self.coarse.gs
        mask = self._mask
        free = np.ones(self.n_vertices, dtype=bool)
        if mask is not None:
            mc = np.ones(self.coarse.shape)
            for ct in (0, -1):
                for cs in (0, -1):
                    for cr in (0, -1):
                        mc[:, ct, cs, cr] = mask[:, ct, cs, cr]
            mc = gs.min(mc)
            free = gs.gather_unique(mc) > 0.5

        # Assemble the sparse Galerkin coarse operator over unique vertices.
        ke = q1_element_stiffness(self.fine.mesh.corner_coords)
        ids = gs.global_ids.reshape(self.fine.mesh.nelv, 8)
        rows = np.repeat(ids, 8, axis=1).reshape(-1)
        cols = np.tile(ids, (1, 8)).reshape(-1)
        a0 = scipy.sparse.coo_matrix(
            (ke.reshape(-1), (rows, cols)), shape=(self.n_vertices, self.n_vertices)
        ).tocsr()
        if mask is not None:
            # Eliminate constrained vertices: identity rows/cols.
            freef = free.astype(np.float64)
            d = scipy.sparse.diags(freef)
            a0 = d @ a0 @ d + scipy.sparse.diags(1.0 - freef)

        if self.singular:
            # Pin vertex 0 (identity row/column).  For a consistent
            # right-hand side (sum == 0, guaranteed by the mean projection)
            # the solve with ``rhs[0] = 0`` is *exact*: the dropped row is
            # minus the sum of the others.
            pin = np.ones(self.n_vertices)
            pin[0] = 0.0
            d = scipy.sparse.diags(pin)
            e00 = scipy.sparse.coo_matrix(([1.0], ([0], [0])), shape=a0.shape)
            ap = (d @ a0 @ d + e00).tocsc()
        else:
            ap = a0.tocsc()
        lu = scipy.sparse.linalg.splu(ap)
        ainv: np.ndarray | None = None
        if self.n_vertices <= _DENSE_INVERSE_MAX_VERTICES:
            ainv = np.ascontiguousarray(lu.solve(np.eye(self.n_vertices)))
        return free, a0, lu, ainv

    # -- transfer operators --------------------------------------------------

    def restrict(self, r_fine: np.ndarray) -> np.ndarray:
        """Dual restriction ``R0 r`` onto unique vertex dofs."""
        rc = interp3(r_fine, self.j_f2c)
        # Dual vectors assemble by summation over duplicates.  The fine
        # residual is duplicated-consistent (already dssum-ed), so each
        # unique fine dof contributes once per element it belongs to -- undo
        # the duplication with inverse multiplicity *before* restriction.
        return np.bincount(
            self.coarse.gs.global_ids, weights=rc.reshape(-1), minlength=self.n_vertices
        )

    def prolong(self, u_vertex: np.ndarray) -> np.ndarray:
        """Prolongation ``R0^T u``: embed the Q1 solution in the fine space."""
        uc = self.coarse.gs.scatter_unique(u_vertex)
        return interp3(uc, self.j_c2f)

    def _project(self, u: np.ndarray) -> None:
        u -= u.mean() if self._all_free else u[self._free].mean()

    def __call__(self, r_fine: np.ndarray) -> np.ndarray:
        """Full coarse correction: restrict, solve, prolong.

        ``r_fine`` must be the assembled (dssum-ed, duplicated-consistent)
        fine residual *divided by nothing* -- the restriction handles the
        dual bookkeeping.  To keep the operation linear-consistent with the
        duplicated storage, the input is first de-duplicated.
        """
        r = r_fine * self._inv_mult
        rc = self.restrict(r)
        if self.singular:
            self._project(rc)
            rc[0] = 0.0
        else:
            rc[~self._free] = 0.0
        uc = self._ainv @ rc if self._ainv is not None else self._lu.solve(rc)
        if self.singular:
            self._project(uc)
        return self.prolong(uc)

    def kernel_inventory(self, n_elements: int | None = None) -> list[tuple[str, int]]:
        """Kernel launch sequence for the GPU simulator (per application).

        Restriction, one gather plus two triangular solves, prolongation.
        The solve's work is the host factor's ``nnz``, scaled to
        ``n_elements`` (vertex count, and so ``nnz``, grows with elements).
        """
        nelv = self.fine.mesh.nelv
        ne = nelv if n_elements is None else n_elements
        return [
            ("coarse_restrict", ne * 8 * self.fine.lx),
            ("coarse_direct_solve", round(self.a0.nnz * ne / nelv)),
            ("coarse_prolong", ne * 8 * self.fine.lx),
        ]
