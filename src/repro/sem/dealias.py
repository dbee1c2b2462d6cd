"""3/2-rule dealiasing (overintegration) of the convective term.

The quadratic nonlinearity ``(c . grad) u`` is evaluated on a finer GLL grid
with ``lxd = ceil(3 lx / 2)`` points per direction and projected back, which
removes the aliasing errors that destabilize marginally-resolved turbulence
-- exactly the treatment the paper reports ("dealiasing (overintegration)
according to the 3/2-rule").

The interpolation operators and the fine-grid inverse metric are
precomputed once per space and reused every step.  The metric is the
coarse inverse map's :class:`~repro.sem.coef.SparseMetric` interpolated
entry by entry, with the fine mass ``B_d`` folded in: the stacked diagonal
``B_d (r_x, s_y, t_z)`` plus ``B_d`` times each off-diagonal entry the
coarse map kept (none on a box, ``s_x`` and ``r_y`` on the cylinder).  One
convection is then one stacked pass: three coarse reference derivatives,
one stacked interpolation of all three, :meth:`SparseMetric.apply` and the
convecting velocity, and one projection back through the cached transposed
interpolation matrix.
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

        # Interpolating the coarse metric is exact for affine elements and
        # spectrally accurate for the blended cylinder maps; B_d is folded in.
        w = np.asarray(fine_w)
        w3 = w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
        mass_d = w3 * interp3(space.coef.jac, self.interp)
        self.metric_d = space.coef.inverse_map.map(lambda m: interp3(m, self.interp) * mass_d)

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
        flux = interp3(du, self.interp)
        self.metric_d.apply(flux)  # B_d du/dx_i
        adv = flux[0]
        adv *= c_fine[0]
        for i in (1, 2):
            flux[i] *= c_fine[i]
            adv += flux[i]
        return interp3(adv, self.interp_t)
