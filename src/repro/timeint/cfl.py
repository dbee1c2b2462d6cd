"""Courant-number estimation for the explicit advection terms.

The EXT-k treatment of advection bounds the usable time step by a CFL
condition; in SEM codes the effective grid spacing is the (nonuniform) GLL
node spacing, which shrinks like ``1/N^2`` near element boundaries.  The
estimate here uses the per-direction reference-space velocities so it is
correct on deformed elements.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace

__all__ = ["courant_number", "max_stable_dt"]

FloatArray = npt.NDArray[np.float64]


def _reference_spacings(lx: int) -> FloatArray:
    """Distance to the nearest GLL neighbour for each of the ``lx`` nodes."""
    x, _ = gll_points_weights(lx)
    x = np.asarray(x)
    d = np.empty(lx)
    d[0] = x[1] - x[0]
    d[-1] = x[-1] - x[-2]
    d[1:-1] = np.minimum(x[1:-1] - x[:-2], x[2:] - x[1:-1])
    return d


def courant_number(
    space: FunctionSpace,
    ux: FloatArray,
    uy: FloatArray,
    uz: FloatArray,
    dt: float,
) -> float:
    """Maximum local Courant number ``dt * |u_ref| / d_ref``.

    The velocity is transformed to reference space (``u . grad r`` etc.) so
    that the comparison against the reference GLL spacing accounts for both
    element size and deformation.
    """
    space.check_fields("courant_number", ux=ux, uy=uy, uz=uz)
    ur, us, ut = np.abs(space.coef.inverse_map.T.apply(np.stack([ux, uy, uz])))
    d = _reference_spacings(space.lx)
    cfl_r = ur / d[None, None, None, :]
    cfl_s = us / d[None, None, :, None]
    cfl_t = ut / d[None, :, None, None]
    return float(dt * np.max(cfl_r + cfl_s + cfl_t))


def max_stable_dt(
    space: FunctionSpace,
    ux: FloatArray,
    uy: FloatArray,
    uz: FloatArray,
    cfl_target: float = 0.5,
) -> float:
    """Largest ``dt`` keeping the Courant number below ``cfl_target``."""
    c1 = courant_number(space, ux, uy, uz, 1.0)
    if c1 <= 0.0:
        return float("inf")
    return cfl_target / c1
