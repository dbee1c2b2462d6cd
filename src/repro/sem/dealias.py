"""3/2-rule dealiasing (overintegration) of the convective term.

The quadratic nonlinearity ``(c . grad) u`` is evaluated on a finer GLL grid
with ``lxd = ceil(3 lx / 2)`` points per direction and projected back, which
removes the aliasing errors that destabilize marginally-resolved turbulence
-- exactly the treatment the paper reports ("dealiasing (overintegration)
according to the 3/2-rule").

The interpolation operators and the fine-grid inverse metric are
precomputed once per space and reused every step.  The metric is one stacked
array with the fine mass ``B_d`` folded in: ``(3, npts_d)`` entries
``B_d (r_x, s_y, t_z)`` on an axis-aligned mesh
(:attr:`~repro.sem.coef.Coefficients.axis_aligned`), the full
``(3, 3, npts_d)`` ``B_d dr_a/dx_i`` otherwise.  One convection is then one
stacked pass: three coarse reference derivatives, one stacked interpolation
of all three, a contraction with the metric and the convecting velocity
(three multiplies, or one fused ``einsum`` on deformed elements) and one
projection back through the cached transposed interpolation matrix.
"""

from __future__ import annotations

import numpy as np

from repro.sem.basis import lagrange_interpolation_matrix
from repro.sem.coef import tensor_derivatives_stacked
from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace

__all__ = ["Dealiaser", "interp3", "interp3_transpose"]


def interp3(u: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Apply a 1-D operator ``j`` along all three tensor directions.

    ``u`` has shape ``(..., m, m, m)`` -- one field ``(nelv, m, m, m)`` or a
    stack of them -- and ``j`` shape ``(p, m)``; the result has shape
    ``(..., p, p, p)``.  The first contraction is one 2-D GEMM over
    ``(batch*m*m, m)`` rows.
    """
    m = u.shape[-1]
    p = j.shape[0]
    nb = u.size // m**3
    v = (u.reshape(nb * m * m, m) @ j.T).reshape(nb, m, m, p)  # i
    v = np.matmul(j, v)                                          # j: (b, m, p, p)
    v = np.matmul(j, v.reshape(nb, m, p * p))                    # k: (b, p, p*p)
    return v.reshape(u.shape[:-3] + (p, p, p))


def interp3_transpose(u: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`interp3` (projection from the fine grid back).

    Builds ``j.T`` on every call; hot paths keep the transposed matrix and
    call :func:`interp3` with it.
    """
    return interp3(u, j.T.copy())


class Dealiaser:
    """Dealiased convective operator for one function space.

    Parameters
    ----------
    space:
        The coarse (solution) function space.
    lxd:
        Number of fine-grid points per direction; defaults to the 3/2 rule.
    """

    def __init__(self, space: FunctionSpace, lxd: int | None = None) -> None:
        self.space = space
        lx = space.lx
        self.lxd = lxd if lxd is not None else (3 * lx + 1) // 2
        if self.lxd < lx:
            raise ValueError(f"fine grid lxd={self.lxd} must be >= lx={lx}")
        fine_pts, fine_w = gll_points_weights(self.lxd)
        self.interp = lagrange_interpolation_matrix(np.asarray(fine_pts), lx)
        self.interp_t = np.ascontiguousarray(self.interp.T)

        coef = space.coef
        # Inverse-map metric dr_a/dx_i on the coarse grid, row i physical,
        # column a reference; the diagonal alone when the mesh is
        # axis-aligned.  Interpolating the coarse metric is exact for affine
        # elements and spectrally accurate for the blended cylinder maps.
        if coef.axis_aligned:
            metric = np.stack([coef.drdx, coef.dsdy, coef.dtdz])
        else:
            metric = np.stack([
                [coef.drdx, coef.dsdx, coef.dtdx],
                [coef.drdy, coef.dsdy, coef.dtdy],
                [coef.drdz, coef.dsdz, coef.dtdz],
            ])
        metric_d = interp3(metric, self.interp)
        w = np.asarray(fine_w)
        w3 = w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
        metric_d *= w3 * interp3(coef.jac, self.interp)  # fold in B_d once
        self.metric_d = metric_d.reshape(metric.shape[:-4] + (-1,))

    def to_fine(self, u: np.ndarray) -> np.ndarray:
        """Interpolate a coarse nodal field to the fine grid."""
        return interp3(u, self.interp)

    def convect_weak(
        self,
        cx: np.ndarray,
        cy: np.ndarray,
        cz: np.ndarray,
        u: np.ndarray,
        c_fine: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Weak-form dealiased convection ``(v, (c . grad) u)``.

        ``c_fine`` may carry the convecting velocity already interpolated to
        the fine grid (it is reused across the three momentum components and
        the scalar each step -- the caller-side optimization Neko performs).

        Differentiates on the coarse grid (where the polynomial lives) and
        interpolates the reference-space derivatives before applying the
        fine metric -- the standard Nek/Neko ordering, which keeps the
        result exact for polynomial data.
        """
        if c_fine is None:
            c_fine = (self.to_fine(cx), self.to_fine(cy), self.to_fine(cz))
        du = np.empty((3,) + u.shape)
        tensor_derivatives_stacked(u, self.space.dx, du)
        flux = interp3(du, self.interp).reshape(3, -1)
        if self.metric_d.ndim == 2:
            flux *= self.metric_d  # B_d r_x u_r, B_d s_y u_s, B_d t_z u_t
        else:
            flux = np.einsum("ian,an->in", self.metric_d, flux)  # B_d du/dx_i
        flux = flux.reshape((3,) + c_fine[0].shape)
        adv = flux[0]
        adv *= c_fine[0]
        for i in (1, 2):
            flux[i] *= c_fine[i]
            adv += flux[i]
        return interp3(adv, self.interp_t)
