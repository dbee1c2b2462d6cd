"""Gauss--Lobatto--Legendre and Gauss--Legendre quadrature rules.

The spectral-element method collocates the solution on Gauss--Lobatto--
Legendre (GLL) points, which include the element end points so that C^0
continuity can be enforced by the gather--scatter operation.  Dealiased
(overintegrated) products are evaluated on a finer GLL grid following the
3/2-rule, as done in Neko and Nek5000.

All routines are pure NumPy, use double precision throughout (the paper
reports double-precision-only runs) and are cached because quadrature
construction is called from many layers of the solver stack.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "gll_points_weights",
    "gauss_legendre_points_weights",
    "legendre_value",
    "legendre_and_derivative",
]


def legendre_value(n: int, x: np.ndarray) -> np.ndarray:
    """Evaluate the Legendre polynomial ``P_n`` at points ``x``.

    Uses the three-term Bonnet recurrence, vectorized over ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return x.copy()
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    return p


def legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``P_n`` and ``P_n'`` at points ``x`` simultaneously.

    The derivative uses the stable relation
    ``(1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x))``, with the end points
    ``x = +-1`` handled by the closed form ``P_n'(+-1) = (+-1)^{n-1} n(n+1)/2``.
    """
    x = np.asarray(x, dtype=np.float64)
    p = legendre_value(n, x)
    if n == 0:
        return p, np.zeros_like(x)
    pm1 = legendre_value(n - 1, x)
    denom = 1.0 - x * x
    interior = np.abs(denom) > 1e-14
    dp = np.empty_like(x)
    dp[interior] = n * (pm1[interior] - x[interior] * p[interior]) / denom[interior]
    edge = ~interior
    if np.any(edge):
        sign = np.where(x[edge] > 0.0, 1.0, (-1.0) ** (n - 1))
        dp[edge] = sign * n * (n + 1) / 2.0
    return p, dp


@functools.lru_cache(maxsize=None)
def gll_points_weights(lx: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``lx`` Gauss--Lobatto--Legendre points and weights on [-1, 1].

    ``lx = N + 1`` where ``N`` is the polynomial degree.  The interior points
    are the roots of ``P_N'`` found by Newton iteration from Chebyshev--Gauss--
    Lobatto initial guesses; the weights are ``w_i = 2 / (N (N+1) P_N(x_i)^2)``.

    The returned arrays are read-only views so that the cache cannot be
    corrupted by callers mutating them in place.
    """
    if lx < 2:
        raise ValueError(f"GLL rule needs at least 2 points, got lx={lx}")
    n = lx - 1
    # Chebyshev-Gauss-Lobatto nodes as the initial guess.
    x = -np.cos(np.pi * np.arange(lx) / n)
    if lx > 2:
        for _ in range(100):
            p, dp = legendre_and_derivative(n, x[1:-1])
            # Newton on f(x) = P_n'(x); f'(x) from the Legendre ODE:
            # (1-x^2) P_n'' - 2x P_n' + n(n+1) P_n = 0.
            xi = x[1:-1]
            d2p = (2.0 * xi * dp - n * (n + 1) * p) / (1.0 - xi * xi)
            step = dp / d2p
            x[1:-1] -= step
            if np.max(np.abs(step)) < 1e-15:
                break
    x[0], x[-1] = -1.0, 1.0
    pn = legendre_value(n, x)
    w = 2.0 / (n * (n + 1) * pn * pn)
    # Symmetrize to kill the last bit of Newton asymmetry.
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.lru_cache(maxsize=None)
def gauss_legendre_points_weights(lx: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``lx``-point Gauss--Legendre rule on [-1, 1].

    Used by the dealiasing layer when a strictly interior quadrature is
    preferred; delegates to ``numpy.polynomial.legendre.leggauss`` which is
    accurate to machine precision for the orders used here.
    """
    if lx < 1:
        raise ValueError(f"GL rule needs at least 1 point, got lx={lx}")
    x, w = np.polynomial.legendre.leggauss(lx)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
