"""The SEM function space: mesh x polynomial degree x metric terms.

A :class:`FunctionSpace` bundles everything the operators need: GLL nodes
and weights, the 1-D derivative matrix, the nodal coordinates of every
element, the geometric factors, the gather--scatter operator and the
assembled inverse "counting" matrix used to turn additively-stored data
back into pointwise values.
"""

from __future__ import annotations

import numpy as np

from repro.sem.basis import derivative_matrix
from repro.sem.coef import Coefficients
from repro.sem.gather_scatter import GatherScatter
from repro.sem.mesh import HexMesh
from repro.sem.quadrature import gll_points_weights

__all__ = ["FunctionSpace"]


class FunctionSpace:
    """Scalar C^0 spectral-element space of degree ``lx - 1`` on a hex mesh."""

    def __init__(self, mesh: HexMesh, lx: int) -> None:
        if lx < 2:
            raise ValueError(f"polynomial space needs lx >= 2 points per direction, got {lx}")
        self.mesh = mesh
        self.lx = lx
        self.nelv = mesh.nelv
        self.points, self.weights = gll_points_weights(lx)
        self.dx = derivative_matrix(lx)
        self.x, self.y, self.z = mesh.gll_coordinates(lx)
        self.shape = (self.nelv, lx, lx, lx)
        self.n_dofs_local = int(np.prod(self.shape))
        self.coef = Coefficients.build(self.x, self.y, self.z, np.asarray(self.weights), np.asarray(self.dx))

        coords = np.stack(
            [self.x.reshape(-1), self.y.reshape(-1), self.z.reshape(-1)], axis=1
        )
        self.gs = GatherScatter(coords, self.shape, periodic_image=mesh.periodic_image)
        self.n_dofs = self.gs.n_global

        # Assembled diagonal mass and its inverse: dssum(B) is the true
        # diagonal of the assembled mass matrix.
        self.mass_assembled = self.gs.add(self.coef.mass)
        self.inv_mass_assembled = 1.0 / self.mass_assembled

    # -- integral helpers ----------------------------------------------------

    def integrate(self, u: np.ndarray) -> float:
        """Integral of a continuous nodal field over the domain."""
        return float(np.sum(u * self.coef.mass))

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Unique-dof inner product through the space's current gather--scatter.

        The solvers reduce through this method rather than a ``gs.dot`` bound
        when they are built, so a gather--scatter swapped into ``gs`` later
        (a partitioned run, :func:`repro.core.simulation.distribute`) takes
        every reduction, each then one allreduce.
        """
        return self.gs.dot(u, v)

    def mean(self, u: np.ndarray) -> float:
        """Volume average of a continuous nodal field."""
        return self.integrate(u) / self.coef.volume

    def norm_l2(self, u: np.ndarray) -> float:
        """Mass-weighted L^2 norm (the paper's reconstruction-error metric)."""
        return float(np.sqrt(np.sum(u * u * self.coef.mass)))

    def relative_l2_error(self, u: np.ndarray, exact: np.ndarray) -> float:
        """``||u - exact|| / ||exact||`` in the mass-weighted L^2 norm.

        Falls back to the absolute norm when ``exact`` is (numerically)
        zero, so manufactured solutions that vanish at some instant do not
        divide by zero.
        """
        denom = self.norm_l2(exact)
        num = self.norm_l2(u - exact)
        if denom < 1e-300:
            return num
        return num / denom

    def check_fields(self, caller: str, **fields: np.ndarray) -> None:
        """Raise ``ValueError`` unless every field has this space's shape.

        A single element's ``(lx, lx, lx)`` array broadcasts silently
        against the ``(nelv, lx, lx, lx)`` geometric factors, so the
        diagnostics that take fields from their caller check first.
        """
        for name, u in fields.items():
            if np.shape(u) != self.shape:
                raise ValueError(
                    f"{caller}: {name} has shape {np.shape(u)}, expected {self.shape}"
                )

    def zeros(self) -> np.ndarray:
        """A zero field with the elementwise layout of this space."""
        return np.zeros(self.shape)

    def project_continuous(self, u: np.ndarray) -> np.ndarray:
        """Mass-weighted projection of (possibly discontinuous) data onto C^0.

        This is the standard SEM smoothing ``Q v = B_assembled^{-1} dssum(B v)``
        used after any operation that breaks interelement continuity.
        """
        return self.gs.add(self.coef.mass * u) * self.inv_mass_assembled

    def interpolate(self, fn) -> np.ndarray:
        """Nodal interpolation of a callable ``fn(x, y, z)``."""
        return np.asarray(fn(self.x, self.y, self.z), dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FunctionSpace(nelv={self.nelv}, lx={self.lx}, "
            f"unique dofs={self.n_dofs})"
        )
