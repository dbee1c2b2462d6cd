"""Jacobi (diagonal) preconditioning for SEM Helmholtz operators.

The diagonal of the tensor-product stiffness matrix is computed in closed
form from the 1-D derivative matrix and the geometric factors (no operator
probing) and assembled across elements with a gather--scatter sum once per
space; a change of coefficients only rescales and inverts.  This is the
preconditioner the paper uses for the velocity and temperature solves.
"""

from __future__ import annotations

import numpy as np

from repro.precond.cache import CacheKey, OperatorCache, resolve_cache
from repro.sem.space import FunctionSpace

__all__ = ["helmholtz_diagonal", "JacobiPrecond"]


def helmholtz_diagonal(
    space: FunctionSpace, h1: float | np.ndarray = 1.0, h2: float | np.ndarray = 0.0
) -> np.ndarray:
    """Unassembled elementwise diagonal of ``h1 * A + h2 * B``.

    For ``A = D_r^T G11 D_r + ... + D_s^T G12 D_r + ...`` the diagonal at
    node ``(k, j, i)`` is

        sum_m D[m,i]^2 G11[k,j,m] + sum_m D[m,j]^2 G22[k,m,i]
      + sum_m D[m,k]^2 G33[m,j,i]
      + 2 D[i,i] D[j,j] G12[k,j,i] + 2 D[i,i] D[k,k] G13[k,j,i]
      + 2 D[j,j] D[k,k] G23[k,j,i].

    (For GLL collocation the interior diagonal entries of ``D`` vanish, so
    the cross terms only contribute on element faces.)
    """
    c = space.coef
    d = np.asarray(space.dx)
    d2 = d * d  # d2[m, i] = D[m, i]^2
    ddiag = np.diag(d)

    diag = np.einsum("ekjm,mi->ekji", c.g11, d2)
    diag += np.einsum("ekmi,mj->ekji", c.g22, d2)
    diag += np.einsum("emji,mk->ekji", c.g33, d2)
    diag += 2.0 * c.g12 * ddiag[None, None, None, :] * ddiag[None, None, :, None]
    diag += 2.0 * c.g13 * ddiag[None, None, None, :] * ddiag[None, :, None, None]
    diag += 2.0 * c.g23 * ddiag[None, None, :, None] * ddiag[None, :, None, None]
    return h1 * diag + h2 * c.mass


class JacobiPrecond:
    """Assembled-diagonal Jacobi preconditioner.

    Parameters
    ----------
    space:
        The function space (supplies gather--scatter).
    h1, h2:
        Helmholtz coefficients; refresh with :meth:`update` when the time
        step (and hence ``h2 = b0 / dt``) changes.
    mask:
        Optional Dirichlet mask; masked dofs get an identity diagonal so
        that applying the preconditioner never touches them.
    cache:
        Operator-cache handle.  What is cached is independent of the
        coefficients and the mask: the assembled diagonal of the stiffness
        matrix, one entry per space (the space already holds the assembled
        mass), from which *scalar* ``h1``/``h2`` give
        ``1 / (h1 diag A + h2 diag B)`` without a gather--scatter.  A run
        that changes its step size therefore leaves the cache as it found
        it.  Array-valued coefficients weight the element diagonals before
        assembly and always rebuild.
    """

    def __init__(
        self,
        space: FunctionSpace,
        h1: float | np.ndarray = 1.0,
        h2: float | np.ndarray = 0.0,
        mask: np.ndarray | None = None,
        cache: OperatorCache | bool | None = None,
    ) -> None:
        self.space = space
        self.mask = mask
        self._diag_a: np.ndarray = resolve_cache(cache).get_or_build(
            CacheKey.for_space(space, "jacobi_diag"),
            lambda: space.gs.add(helmholtz_diagonal(space, 1.0, 0.0)),
        )
        self._inv_diag: np.ndarray | None = None
        self.update(h1, h2)

    def update(self, h1: float | np.ndarray, h2: float | np.ndarray) -> None:
        """Recompute the assembled diagonal for new Helmholtz coefficients."""
        if np.isscalar(h1) and np.isscalar(h2):
            diag = h1 * self._diag_a + h2 * self.space.mass_assembled
        else:
            diag = self.space.gs.add(helmholtz_diagonal(self.space, h1, h2))
        if self.mask is not None:
            diag[self.mask == 0.0] = 1.0
        if np.any(diag <= 0.0):
            raise ValueError("Helmholtz diagonal is not positive; check h1/h2 signs")
        self._inv_diag = np.divide(1.0, diag, out=diag)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply ``z = diag(A)^{-1} r`` (masked dofs passed through zeroed)."""
        z = r * self._inv_diag
        if self.mask is not None:
            z *= self.mask
        return z
