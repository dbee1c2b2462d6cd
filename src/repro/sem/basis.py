"""Polynomial bases and 1-D operator matrices for the SEM.

Everything in the 3-D solver is built from tensor products of the small
dense matrices constructed here: the Lagrange derivative matrix on the GLL
grid, interpolation matrices between grids (used by dealiasing, multigrid
level transfer and the coarse-space restriction), and the nodal<->modal
Legendre transform used by the lossy compressor.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.sem.quadrature import gll_points_weights, legendre_value

__all__ = [
    "legendre_polynomial",
    "lagrange_interpolation_matrix",
    "derivative_matrix",
    "modal_transform_matrix",
    "vandermonde_pair",
    "lagrange_weights",
]


def legendre_polynomial(n: int, x: np.ndarray) -> np.ndarray:
    """Evaluate ``P_n`` at ``x`` (thin re-export for API convenience)."""
    return legendre_value(n, x)


@functools.lru_cache(maxsize=None)
def lagrange_weights(lx: int) -> np.ndarray:
    """Barycentric weights of the Lagrange basis on the ``lx`` GLL points."""
    x, _ = gll_points_weights(lx)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    w.setflags(write=False)
    return w


def lagrange_interpolation_matrix(x_to: np.ndarray, lx_from: int) -> np.ndarray:
    """Matrix interpolating nodal values on the ``lx_from`` GLL grid to ``x_to``.

    Row ``i`` contains the Lagrange cardinal functions ``l_j`` evaluated at
    ``x_to[i]`` using the numerically stable barycentric form.  Points of
    ``x_to`` that coincide with a source node produce an exact unit row.
    """
    x_from, _ = gll_points_weights(lx_from)
    w = lagrange_weights(lx_from)
    x_to = np.atleast_1d(np.asarray(x_to, dtype=np.float64))
    diff = x_to[:, None] - x_from[None, :]
    exact = np.abs(diff) < 1e-14
    # Regularize exact hits; those rows are overwritten below.
    diff = np.where(exact, 1.0, diff)
    terms = w[None, :] / diff
    mat = terms / np.sum(terms, axis=1, keepdims=True)
    hit_rows = np.any(exact, axis=1)
    if np.any(hit_rows):
        mat[hit_rows] = exact[hit_rows].astype(np.float64)
    return mat


@functools.lru_cache(maxsize=None)
def derivative_matrix(lx: int) -> np.ndarray:
    """First-derivative (collocation) matrix on the ``lx`` GLL points.

    ``(D u)_i = u'(x_i)`` for ``u`` the interpolating polynomial of the nodal
    values.  Built from the barycentric weights with the negative-sum trick
    for the diagonal, which is the numerically preferred construction.
    """
    x, _ = gll_points_weights(lx)
    w = lagrange_weights(lx)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    d.setflags(write=False)
    return d


@functools.lru_cache(maxsize=None)
def modal_transform_matrix(lx: int) -> np.ndarray:
    """Vandermonde matrix ``V`` of orthonormalized Legendre modes at GLL points.

    ``V[i, j] = \\tilde P_j(x_i)`` with ``\\tilde P_j = P_j * sqrt((2j+1)/2)``
    so that the modes are orthonormal in L^2(-1, 1).  Nodal values ``u`` and
    modal coefficients ``uh`` are related by ``u = V uh``; since the GLL
    quadrature integrates ``P_j P_k`` exactly only for ``j + k <= 2N - 1``,
    the *exact* inverse ``V^{-1}`` is used for the forward transform rather
    than the quadrature-based quasi-inverse (this matters for the top mode
    of the compressor's error bound).
    """
    x, _ = gll_points_weights(lx)
    v = np.empty((lx, lx), dtype=np.float64)
    for j in range(lx):
        v[:, j] = legendre_value(j, x) * np.sqrt((2 * j + 1) / 2.0)
    v.setflags(write=False)
    return v


@functools.lru_cache(maxsize=None)
def vandermonde_pair(lx: int) -> tuple[np.ndarray, np.ndarray]:
    """``(V, V^{-1})`` for :func:`modal_transform_matrix`, cached per order.

    ``V`` maps modal coefficients to nodal values and ``V^{-1}`` is its
    exact inverse (see :func:`modal_transform_matrix` for why the exact
    inverse is used); both are frozen read-only since they are shared
    through the cache.
    """
    v = np.asarray(modal_transform_matrix(lx))
    vinv = np.linalg.inv(v)
    v.setflags(write=False)
    vinv.setflags(write=False)
    return v, vinv
