"""Fast diagonalization method (FDM) for per-element local Poisson solves.

The fine level of the Schwarz preconditioner solves, on every element, a
separable approximation of the Poisson operator

    A3 = Kz (x) My (x) Mx + Mz (x) Ky (x) Mx + Mz (x) My (x) Kx

where the 1-D stiffness/mass pairs live on an *extended* grid: the element's
GLL points plus one ghost point on each side (at the first interior GLL
spacing), with homogeneous Dirichlet conditions at the ghost points.  The
ghost extension plays the role of the one-layer overlap in Nek5000's classic
additive Schwarz: it regularizes the local problem (no Neumann null space)
while keeping the element's own boundary nodes free, so the smoother updates
*all* dofs.

Because every element uses the same reference extended grid, a single
generalized eigendecomposition ``K S = M S diag(lambda)`` is shared by all
elements; only the per-direction length scalings

    K_d = (2 / L_d) K_ref,   M_d = (L_d / 2) M_ref

differ, entering through the per-element eigenvalue tensor.  The local solve
is then three batched tensor contractions with ``S^T``, a pointwise division
and three with ``S`` -- the exact kernel profile the GPU simulator models.
"""

from __future__ import annotations

import functools
from typing import Literal

import numpy as np
import scipy.linalg

from repro.precond.cache import CacheKey, OperatorCache, resolve_cache
from repro.sem.quadrature import gauss_legendre_points_weights, gll_points_weights
from repro.sem.space import FunctionSpace

__all__ = ["FastDiagonalization", "extended_grid_operators"]


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def _interp_matrix(x_to: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix from arbitrary ``nodes`` to ``x_to``."""
    bw = _barycentric_weights(nodes)
    d = x_to[:, None] - nodes[None, :]
    exact = np.abs(d) < 1e-14
    d = np.where(exact, 1.0, d)
    terms = bw[None, :] / d
    mat = terms / terms.sum(axis=1, keepdims=True)
    hit = np.any(exact, axis=1)
    if np.any(hit):  # pragma: no cover - quadrature points are interior
        mat[hit] = exact[hit].astype(np.float64)
    return mat


def _deriv_matrix(nodes: np.ndarray) -> np.ndarray:
    """Collocation derivative matrix on arbitrary distinct ``nodes``."""
    bw = _barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (bw[None, :] / bw[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def _lagrange_matrices_on_nodes(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact 1-D stiffness and mass matrices of the Lagrange basis on ``nodes``.

    Integrates ``l_i' l_j'`` and ``l_i l_j`` with a Gauss--Legendre rule that
    is exact for the polynomial degree at hand.  Derivatives are obtained by
    collocation differentiation at the nodes followed by (exact) polynomial
    interpolation to the quadrature points.
    """
    n = len(nodes)
    lo, hi = nodes[0], nodes[-1]
    xq, wq = gauss_legendre_points_weights(2 * n)
    xq = lo + (np.asarray(xq) + 1.0) / 2.0 * (hi - lo)
    wq = np.asarray(wq) * (hi - lo) / 2.0

    j = _interp_matrix(xq, nodes)
    vals = j
    ders = j @ _deriv_matrix(nodes)
    stiff = (ders * wq[:, None]).T @ ders
    mass = (vals * wq[:, None]).T @ vals
    return stiff, mass


@functools.lru_cache(maxsize=None)
def extended_grid_operators(lx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-setup of the extended reference grid for ``lx`` GLL points.

    Returns ``(S, lam, nodes)`` where the columns of ``S`` are generalized
    eigenvectors of the Dirichlet-reduced extended (stiffness, mass) pair
    normalized so ``S^T M S = I``, and ``lam`` the eigenvalues.  The grid is
    the element's GLL points plus one ghost point per side carrying the
    homogeneous Dirichlet cap; the reduced system has ``lx`` dofs.
    """
    x, _ = gll_points_weights(lx)
    x = np.asarray(x)
    gap = x[1] - x[0]
    nodes = np.concatenate([[x[0] - gap], x, [x[-1] + gap]])
    stiff, mass = _lagrange_matrices_on_nodes(nodes)
    # Homogeneous Dirichlet at the two cap points: drop first/last row+col.
    k_red = stiff[1:-1, 1:-1]
    m_red = mass[1:-1, 1:-1]
    lam, s = scipy.linalg.eigh(k_red, m_red)
    if lam[0] <= 0:
        raise RuntimeError("extended-grid FDM operator must be positive definite")
    return s, lam, nodes


def _element_lengths(space: FunctionSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average physical extent of every element along each local direction."""
    x, y, z = space.x, space.y, space.z

    def face_mid(arr: np.ndarray, axis: int, side: int) -> np.ndarray:
        sl = [slice(None)] * 4
        sl[axis] = side
        return arr[tuple(sl)].reshape(arr.shape[0], -1).mean(axis=1)

    def length(axis: int) -> np.ndarray:
        dx_ = face_mid(x, axis, -1) - face_mid(x, axis, 0)
        dy_ = face_mid(y, axis, -1) - face_mid(y, axis, 0)
        dz_ = face_mid(z, axis, -1) - face_mid(z, axis, 0)
        return np.sqrt(dx_**2 + dy_**2 + dz_**2)

    # axis 3 = r, axis 2 = s, axis 1 = t.
    return length(3), length(2), length(1)


class FastDiagonalization:
    """Batched per-element FDM solve ``u_e = A3_e^{-1} r_e``.

    Acts on plain ``lx^3`` element arrays with zero Dirichlet ghost caps.
    This is the local solve of :class:`~repro.precond.schwarz.SchwarzSmoother`,
    which adds the counting weights and the gather--scatter that make it a
    preconditioner.

    The ``(S, S^T, inv_d3)`` setup is a pure function of the mesh geometry,
    so it is shared through the process-wide
    :class:`~repro.precond.cache.OperatorCache` (``cache=None``); pass
    ``cache=False`` to force a private cold build.
    """

    def __init__(
        self,
        space: FunctionSpace,
        cache: OperatorCache | Literal[False] | None = None,
    ) -> None:
        key = CacheKey.for_space(space, "fdm")
        self.s, self.st, self.inv_d3 = resolve_cache(cache).get_or_build(
            key, lambda: self._build(space)
        )

    @staticmethod
    def _build(space: FunctionSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lx = space.lx
        s, lam, _ = extended_grid_operators(lx)
        lr, ls, lt = _element_lengths(space)

        # Eigenvalue tensor D3[e, k, j, i] of the separable operator with
        # direction scalings K_d = (2/L_d) K_ref, M_d = (L_d/2) M_ref.
        kx = (2.0 / lr)[:, None] * lam[None, :]
        ky = (2.0 / ls)[:, None] * lam[None, :]
        kz = (2.0 / lt)[:, None] * lam[None, :]
        mx = (lr / 2.0)[:, None] * np.ones_like(lam)[None, :]
        my = (ls / 2.0)[:, None] * np.ones_like(lam)[None, :]
        mz = (lt / 2.0)[:, None] * np.ones_like(lam)[None, :]

        d3 = (
            kz[:, :, None, None] * my[:, None, :, None] * mx[:, None, None, :]
            + mz[:, :, None, None] * ky[:, None, :, None] * mx[:, None, None, :]
            + mz[:, :, None, None] * my[:, None, :, None] * kx[:, None, None, :]
        )
        # ``s`` belongs to the lru-cached reference setup: hand out a copy.
        return np.array(s), np.ascontiguousarray(s.T), 1.0 / d3

    def _tensor_apply(self, u: np.ndarray, m: np.ndarray) -> np.ndarray:
        nelv, lz, ly, lx = u.shape
        v = (u.reshape(-1, lx) @ m.T).reshape(u.shape)  # r: one 2-D GEMM
        v = np.matmul(m, v)
        v = np.matmul(m, v.reshape(nelv, lz, ly * lx)).reshape(u.shape)
        return v

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Apply the batched local inverse to an elementwise residual."""
        v = self._tensor_apply(r, self.st)
        v *= self.inv_d3
        return self._tensor_apply(v, self.s)
