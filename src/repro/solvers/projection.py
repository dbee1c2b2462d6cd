"""Null-space projection for the singular pressure-Poisson problem.

With pure Neumann boundary conditions the stiffness matrix has the constant
vector in its kernel; the compatible right-hand side is orthogonal to it and
the solution is defined up to a constant.  The projector removes the
(mass-weighted or counting-weighted) mean so the Krylov iteration stays in
the orthogonal complement -- the standard treatment in Neko/Nek5000.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np
import numpy.typing as npt

__all__ = ["MeanProjector"]

FloatArray = npt.NDArray[np.float64]


class _HasMultiplicity(Protocol):
    """The slice of the gather-scatter interface :meth:`MeanProjector.counting` needs."""

    multiplicity: FloatArray


class MeanProjector:
    """Projects the weighted mean out of a field (in place).

    Parameters
    ----------
    weight:
        Pointwise weight defining the inner product against the constant
        vector.  For SEM use the *unassembled* mass matrix so the mean is the
        true volume average; for pure algebraic problems use multiplicity
        weights.
    """

    def __init__(self, weight: FloatArray) -> None:
        self._weight_flat = np.ascontiguousarray(weight).reshape(-1)
        self.total = float(np.sum(weight))
        if self.total <= 0:
            raise ValueError("projection weight must have positive total")

    def mean(self, u: FloatArray) -> float:
        """Weighted mean of ``u`` (one BLAS dot; called per Krylov direction)."""
        return float(np.dot(self._weight_flat, u.reshape(-1))) / self.total

    def __call__(self, u: FloatArray) -> FloatArray:
        """Remove the weighted mean from ``u`` in place; returns ``u``."""
        u -= self.mean(u)
        return u

    @classmethod
    def counting(cls, gs: _HasMultiplicity) -> "MeanProjector":
        """Projector against the constant over *unique* dofs.

        This is the correct compatibility projection for assembled
        (duplicated-consistent) residuals of the pure-Neumann problem: the
        kernel of the stiffness matrix is the constant vector over unique
        dofs, so the component to remove is ``sum_unique r / n_unique``,
        computed here with inverse-multiplicity weights.
        """
        return cls(1.0 / gs.multiplicity)
