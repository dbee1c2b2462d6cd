"""Geometric factors (metric terms) of a deformed spectral element.

For every element the map x(r) from the reference cube is differentiated on
the GLL grid to obtain the Jacobian matrix ``dx_i/dr_j``, its determinant,
its inverse ``dr_i/dx_j``, the diagonal mass matrix ``B = w3 |J|`` and the
six symmetric stiffness factors

    G_ab = w3 |J| (grad r_a . grad r_b),   a, b in {r, s, t},

which are what the matrix-free Laplacian kernel contracts against.  These
arrays are exactly the ``drdx``/``jac``/``B``/``G`` fields a spectral-element
code keeps resident on the device for the whole run.

The geometry also decides what the contractions multiply.  G and the
inverse map are each kept as one :class:`SparseMetric`: the three diagonal
entries stacked, plus the off-diagonal entries that are more than round-off
(above ``1e-12`` of the tensor's largest entry).  On a box no off-diagonal
survives and a contraction is one stacked multiply; on the extruded
cylinder G keeps its ``(r, s)`` pair and the inverse map its ``x/y x r/s``
block, five products of nine.  :meth:`SparseMetric.apply` is the one
contraction every kernel uses, and which entries it multiplies is a property
of the coordinates, never an option.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["Coefficients", "SparseMetric", "tensor_derivatives"]

#: Largest off-diagonal metric entry, relative to the largest entry of its
#: tensor, that is dropped as round-off of the map (see SparseMetric.keep).
AXIS_ALIGNED_RTOL = 1e-12


def tensor_derivatives_stacked(u: np.ndarray, dx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Reference-space derivatives written into a stacked ``(3, *u.shape)`` buffer.

    Same contractions as :func:`tensor_derivatives` but with ``out=``
    targets, so the result lands directly in the layout the fused
    geometric-factor contraction of ``ax_poisson``/``ax_helmholtz``
    consumes -- no staging copies.
    """
    nelv, lz, ly, lx = u.shape
    np.matmul(u.reshape(-1, lx), dx.T, out=out[0].reshape(-1, lx))
    np.matmul(dx, u, out=out[1])
    np.matmul(dx, u.reshape(nelv, lz, ly * lx), out=out[2].reshape(nelv, lz, ly * lx))
    return out


def tensor_derivatives(u: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-space derivatives ``(du/dr, du/ds, du/dt)`` of nodal data.

    ``u`` has shape ``(nelv, lx, lx, lx)`` indexed ``[e, k(t), j(s), i(r)]``
    and ``dx`` is the 1-D collocation derivative matrix.  All three
    directions run as BLAS ``matmul`` calls: ``r`` as one 2-D GEMM over
    ``(nelv*lz*ly, lx)`` rows, ``s`` and ``t`` batched over
    ``(nelv*lz, ly, lx)`` / ``(nelv, lz, ly*lx)`` reshapes.
    """
    nelv, lz, ly, lx = u.shape
    ur = (u.reshape(-1, lx) @ dx.T).reshape(u.shape)
    us = np.matmul(dx, u)
    ut = np.matmul(dx, u.reshape(nelv, lz, ly * lx)).reshape(u.shape)
    return ur, us, ut


@dataclass(frozen=True)
class SparseMetric:
    """A pointwise 3x3 tensor ``M[i, a]`` with its structural zeros dropped.

    ``diag`` stacks the three diagonal entries, ``(3, *field_shape)``;
    ``off`` lists the kept off-diagonal entries as ``(i, a, values)``; a
    symmetric pair from :meth:`keep` is listed twice with one shared array.
    """

    diag: np.ndarray
    off: tuple[tuple[int, int, np.ndarray], ...] = ()

    @classmethod
    def keep(cls, rows: list[list[np.ndarray]]) -> "SparseMetric":
        """The entries of ``rows[i][a]`` that are more than round-off.

        An off-diagonal entry is kept when its largest magnitude exceeds
        :data:`AXIS_ALIGNED_RTOL` times the largest magnitude of the tensor.
        """
        cut = AXIS_ALIGNED_RTOL * max(float(np.abs(m).max()) for row in rows for m in row)
        off = tuple((i, a, rows[i][a]) for i in range(3) for a in range(3)
                    if i != a and np.abs(rows[i][a]).max() > cut)
        return cls(np.stack([rows[0][0], rows[1][1], rows[2][2]]), off)

    @property
    def T(self) -> "SparseMetric":
        """The transposed tensor ``M[a, i]`` (shares the arrays)."""
        return SparseMetric(self.diag, tuple((a, i, m) for i, a, m in self.off))

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "SparseMetric":
        """The same entries, each passed through ``fn`` (which takes
        ``(..., *field_shape)`` arrays: the stacked diagonal and one entry)."""
        return SparseMetric(fn(self.diag), tuple((i, a, fn(m)) for i, a, m in self.off))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``x[i] <- sum_a M[i, a] x[a]`` in place on stacked ``(3, *field_shape)`` rows.

        One stacked multiply for the diagonal, one multiply-add per kept
        off-diagonal entry; the off-diagonal terms are formed first, from
        the rows as they were.
        """
        terms: dict[int, np.ndarray] = {}
        for i, a, m in self.off:
            terms[i] = terms[i] + m * x[a] if i in terms else m * x[a]
        x *= self.diag
        for i, term in terms.items():
            x[i] += term
        return x


@dataclass
class Coefficients:
    """Metric terms of a mesh sampled on the GLL grid of a function space.

    All arrays have shape ``(nelv, lx, lx, lx)``.
    """

    # Forward map derivatives dx_i/dr_j.
    dxdr: np.ndarray
    dxds: np.ndarray
    dxdt: np.ndarray
    dydr: np.ndarray
    dyds: np.ndarray
    dydt: np.ndarray
    dzdr: np.ndarray
    dzds: np.ndarray
    dzdt: np.ndarray
    # Inverse map derivatives dr_i/dx_j.
    drdx: np.ndarray
    drdy: np.ndarray
    drdz: np.ndarray
    dsdx: np.ndarray
    dsdy: np.ndarray
    dsdz: np.ndarray
    dtdx: np.ndarray
    dtdy: np.ndarray
    dtdz: np.ndarray
    jac: np.ndarray
    mass: np.ndarray  # B = w3 * |J|
    g11: np.ndarray
    g22: np.ndarray
    g33: np.ndarray
    g12: np.ndarray
    g13: np.ndarray
    g23: np.ndarray
    volume: float
    # G and the inverse map dr_a/dx_i (row i physical, column a reference),
    # their diagonals stacked; the components above are views into them.
    g: SparseMetric
    inverse_map: SparseMetric

    @property
    def axis_aligned(self) -> bool:
        """Every element's reference axes are the physical axes (no
        off-diagonal inverse-map entry above round-off)."""
        return not self.inverse_map.off

    @classmethod
    def build(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        weights: np.ndarray,
        dx: np.ndarray,
    ) -> "Coefficients":
        """Compute all factors from nodal coordinates.

        Parameters
        ----------
        x, y, z:
            ``(nelv, lx, lx, lx)`` GLL node coordinates.
        weights:
            1-D GLL quadrature weights of length ``lx``.
        dx:
            ``(lx, lx)`` collocation derivative matrix.
        """
        dxdr, dxds, dxdt = tensor_derivatives(x, dx)
        dydr, dyds, dydt = tensor_derivatives(y, dx)
        dzdr, dzds, dzdt = tensor_derivatives(z, dx)
        jac = (
            dxdr * (dyds * dzdt - dydt * dzds)
            - dxds * (dydr * dzdt - dydt * dzdr)
            + dxdt * (dydr * dzds - dyds * dzdr)
        )
        if np.any(jac <= 0.0):
            bad = int(np.count_nonzero(np.min(jac.reshape(jac.shape[0], -1), axis=1) <= 0.0))
            raise ValueError(
                f"mesh has {bad} element(s) with non-positive Jacobian "
                "(inverted or degenerate geometry)"
            )

        inv = 1.0 / jac
        drdx = (dyds * dzdt - dydt * dzds) * inv
        drdy = (dxdt * dzds - dxds * dzdt) * inv
        drdz = (dxds * dydt - dxdt * dyds) * inv
        dsdx = (dydt * dzdr - dydr * dzdt) * inv
        dsdy = (dxdr * dzdt - dxdt * dzdr) * inv
        dsdz = (dxdt * dydr - dxdr * dydt) * inv
        dtdx = (dydr * dzds - dyds * dzdr) * inv
        dtdy = (dxds * dzdr - dxdr * dzds) * inv
        dtdz = (dxdr * dyds - dxds * dydr) * inv

        w3 = weights[None, :, None, None] * weights[None, None, :, None] * weights[None, None, None, :]
        mass = w3 * jac
        wj = w3 * jac

        g11 = wj * (drdx**2 + drdy**2 + drdz**2)
        g22 = wj * (dsdx**2 + dsdy**2 + dsdz**2)
        g33 = wj * (dtdx**2 + dtdy**2 + dtdz**2)
        g12 = wj * (drdx * dsdx + drdy * dsdy + drdz * dsdz)
        g13 = wj * (drdx * dtdx + drdy * dtdy + drdz * dtdz)
        g23 = wj * (dsdx * dtdx + dsdy * dtdy + dsdz * dtdz)
        g = SparseMetric.keep([[g11, g12, g13], [g12, g22, g23], [g13, g23, g33]])
        inverse_map = SparseMetric.keep(
            [[drdx, dsdx, dtdx], [drdy, dsdy, dtdy], [drdz, dsdz, dtdz]]
        )
        drdx, dsdy, dtdz = inverse_map.diag
        g11, g22, g33 = g.diag

        return cls(
            dxdr=dxdr, dxds=dxds, dxdt=dxdt,
            dydr=dydr, dyds=dyds, dydt=dydt,
            dzdr=dzdr, dzds=dzds, dzdt=dzdt,
            drdx=drdx, drdy=drdy, drdz=drdz,
            dsdx=dsdx, dsdy=dsdy, dsdz=dsdz,
            dtdx=dtdx, dtdy=dtdy, dtdz=dtdz,
            jac=jac, mass=mass,
            g11=g11, g22=g22, g33=g33, g12=g12, g13=g13, g23=g23,
            volume=float(np.sum(mass)),
            g=g,
            inverse_map=inverse_map,
        )
