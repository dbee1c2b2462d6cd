"""Geometric factors (metric terms) of a deformed spectral element.

For every element the map x(r) from the reference cube is differentiated on
the GLL grid to obtain the Jacobian matrix ``dx_i/dr_j``, its determinant,
its inverse ``dr_i/dx_j``, the diagonal mass matrix ``B = w3 |J|`` and the
six symmetric stiffness factors

    G_ab = w3 |J| (grad r_a . grad r_b),   a, b in {r, s, t},

which are what the matrix-free Laplacian kernel contracts against.  These
arrays are exactly the ``drdx``/``jac``/``B``/``G`` fields a spectral-element
code keeps resident on the device for the whole run.

The geometry also decides the contraction.  When every element's reference
axes are the physical axes -- every forward-Jacobian off-diagonal is zero to
round-off, as on any box mesh -- ``G`` and the inverse map are diagonal, and
:attr:`Coefficients.axis_aligned` makes :meth:`Coefficients.g_stack` hand the
kernels ``(g11, g22, g33)`` alone: three multiplies per point instead of a
3x3 contraction.  The flag is computed from the coordinates, never passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Coefficients", "stack_metric", "tensor_derivatives"]

#: Largest forward-Jacobian off-diagonal, relative to the largest diagonal
#: entry, that still counts as an axis-aligned mesh (round-off of the map).
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


def stack_metric(
    g11: np.ndarray,
    g22: np.ndarray,
    g33: np.ndarray,
    g12: np.ndarray,
    g13: np.ndarray,
    g23: np.ndarray,
) -> np.ndarray:
    """The six symmetric components as one full ``(3, 3, npts)`` array."""
    g = np.empty((3, 3, g11.size))
    for (a, b), comp in (
        ((0, 0), g11), ((1, 1), g22), ((2, 2), g33),
        ((0, 1), g12), ((0, 2), g13), ((1, 2), g23),
    ):
        g[a, b] = comp.reshape(-1)
        g[b, a] = g[a, b]
    return g


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
    # Every element's reference axes are the physical axes (see build()).
    axis_aligned: bool = False
    # Lazily built stacked view of the symmetric G tensor (see g_stack()).
    _g_stack: np.ndarray | None = None

    def g_stack(self) -> np.ndarray:
        """Symmetric geometric factors, stacked for the ``ax_*`` kernels.

        ``(3, npts)`` ``[g11, g22, g33]`` on an axis-aligned mesh (the
        off-diagonals are round-off there), otherwise the full
        ``(3, 3, npts)`` tensor for one fused ``einsum`` contraction.  The
        kernels dispatch on ``ndim``.  Built on first use and reused for the
        lifetime of the coefficients (G is immutable after construction).
        """
        if self._g_stack is None:
            if self.axis_aligned:
                self._g_stack = np.stack(
                    [self.g11.reshape(-1), self.g22.reshape(-1), self.g33.reshape(-1)]
                )
            else:
                self._g_stack = stack_metric(
                    self.g11, self.g22, self.g33, self.g12, self.g13, self.g23
                )
        return self._g_stack

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
        diagonal = max(float(np.abs(d).max()) for d in (dxdr, dyds, dzdt))
        off_diagonal = max(
            float(np.abs(d).max()) for d in (dxds, dxdt, dydr, dydt, dzdr, dzds)
        )
        axis_aligned = off_diagonal <= AXIS_ALIGNED_RTOL * diagonal

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
            axis_aligned=axis_aligned,
        )
