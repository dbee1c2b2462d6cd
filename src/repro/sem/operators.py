"""Matrix-free tensor-product operators.

These are the compute kernels of the solver -- the Python analogues of
Neko's ``ax_helm``, ``opgrad``, ``cdtp`` and friends.  Everything is
formulated per element on the ``(nelv, lx, lx, lx)`` layout and contracted
with 2-D and batched ``matmul`` so the work runs inside BLAS.  None of these
routines performs gather--scatter or boundary masking; that is the caller's
job (exactly as in the real code, where the ``Ax`` object computes the local
action and the Krylov solver owns assembly).
"""

from __future__ import annotations

import numpy as np

from repro.sem.coef import (
    Coefficients,
    stack_metric,
    tensor_derivatives,
    tensor_derivatives_stacked,
)

__all__ = [
    "local_grad",
    "local_grad_transpose",
    "physical_grad",
    "ax_poisson",
    "ax_helmholtz",
    "weak_divergence",
    "weak_gradient",
    "weak_gradient_transpose",
    "divergence",
    "curl",
    "convective_term_collocated",
]


def local_grad(u: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-space derivatives ``(u_r, u_s, u_t)``."""
    return tensor_derivatives(u, dx)


def local_grad_transpose(
    wr: np.ndarray, ws: np.ndarray, wt: np.ndarray, dx: np.ndarray
) -> np.ndarray:
    """Adjoint of :func:`local_grad`: ``D_r^T wr + D_s^T ws + D_t^T wt``."""
    nelv, lz, ly, lx = wr.shape
    out = (wr.reshape(-1, lx) @ dx).reshape(wr.shape)
    out += np.matmul(dx.T, ws)
    out += np.matmul(dx.T, wt.reshape(nelv, lz, ly * lx)).reshape(wr.shape)
    return out


def physical_grad(
    u: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise physical gradient ``(du/dx, du/dy, du/dz)``."""
    ur, us, ut = tensor_derivatives(u, dx)
    dudx = ur * coef.drdx + us * coef.dsdx + ut * coef.dtdx
    dudy = ur * coef.drdy + us * coef.dsdy + ut * coef.dtdy
    dudz = ur * coef.drdz + us * coef.dsdz + ut * coef.dtdz
    return dudx, dudy, dudz


def _metric(coef: Coefficients) -> np.ndarray:
    """The stacked geometric factors the ``ax_*`` kernels contract against.

    Per-rank stand-ins that carry only the six components (the SPMD solve of
    ``benchmarks/spine/campaign.py``) get the full tensor stacked per call.
    """
    g_stack = getattr(coef, "g_stack", None)
    if g_stack is None:
        return stack_metric(coef.g11, coef.g22, coef.g33, coef.g12, coef.g13, coef.g23)
    return g_stack()


def _stiffness_flux(u: np.ndarray, g: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Stacked ``G (D u)``: reference derivatives contracted with the metric.

    A diagonal ``(3, npts)`` metric (axis-aligned mesh) scales the stacked
    derivatives in place; the full ``(3, 3, npts)`` one runs as one fused
    ``einsum``.  This is the only fork in the stiffness kernels.
    """
    du = np.empty((3,) + u.shape)
    tensor_derivatives_stacked(u, dx, du)
    flat = du.reshape(3, u.size)
    if g.ndim == 2:
        flat *= g
        return du
    return np.einsum("abn,bn->an", g, flat).reshape(du.shape)


def ax_poisson(u: np.ndarray, coef: Coefficients, dx: np.ndarray) -> np.ndarray:
    """Local action of the stiffness matrix: ``w = A u`` (unassembled).

    The weak Laplacian ``(grad v, grad u)`` evaluated with the geometric
    factors ``G``: differentiate, contract with ``G``, apply the transposed
    derivatives.  ~``12 lx`` flops per point for the tensor sweeps; the
    resident arrays are u, the output and the metric -- three diagonal
    factors on an axis-aligned mesh, the nine-entry stack on a deformed
    one -- the bandwidth-bound profile the roofline model in
    ``repro.perfmodel`` assumes.
    """
    w = _stiffness_flux(u, _metric(coef), dx)
    return local_grad_transpose(w[0], w[1], w[2], dx)


def ax_helmholtz(
    u: np.ndarray,
    coef: Coefficients,
    dx: np.ndarray,
    h1: float | np.ndarray,
    h2: float | np.ndarray,
) -> np.ndarray:
    """Local action of the Helmholtz operator ``h1 * A + h2 * B``.

    ``h1`` is the diffusivity, ``h2`` the reaction/mass coefficient (the
    BDF ``b0 / dt`` factor in the time-stepper); both may vary pointwise.
    """
    w = _stiffness_flux(u, _metric(coef), dx)
    w *= h1  # scalar or pointwise (nelv, lx, lx, lx): broadcasts over rows
    out = local_grad_transpose(w[0], w[1], w[2], dx)
    out += h2 * coef.mass * u
    return out


def divergence(
    ux: np.ndarray, uy: np.ndarray, uz: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> np.ndarray:
    """Pointwise (strong) divergence of a vector field.

    Forms only the diagonal of the velocity gradient -- ``du/dx``, ``dv/dy``,
    ``dw/dz`` -- rather than taking it from three full :func:`physical_grad`
    calls (nine derivatives, six of them discarded).
    """
    ur, us, ut = tensor_derivatives(ux, dx)
    div = ur * coef.drdx + us * coef.dsdx + ut * coef.dtdx
    ur, us, ut = tensor_derivatives(uy, dx)
    div += ur * coef.drdy + us * coef.dsdy + ut * coef.dtdy
    ur, us, ut = tensor_derivatives(uz, dx)
    div += ur * coef.drdz + us * coef.dsdz + ut * coef.dtdz
    return div


def weak_divergence(
    ux: np.ndarray, uy: np.ndarray, uz: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> np.ndarray:
    """Weak divergence ``(v, div u)``: the mass-weighted strong divergence.

    With GLL collocation the weak form reduces to ``B * div(u)``; this is the
    quantity that feeds the pressure-Poisson right-hand side.
    """
    return coef.mass * divergence(ux, uy, uz, coef, dx)


def weak_gradient(
    p: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak gradient ``(v, grad p)`` componentwise (mass-weighted)."""
    px, py, pz = physical_grad(p, coef, dx)
    return coef.mass * px, coef.mass * py, coef.mass * pz


def weak_gradient_transpose(
    vx: np.ndarray,
    vy: np.ndarray,
    vz: np.ndarray,
    coef: Coefficients,
    dx: np.ndarray,
) -> np.ndarray:
    """``(grad phi, v)`` -- the integrated-by-parts weak divergence.

    This is Nek's ``cdtp``: the adjoint of the weak gradient.  For a vector
    field with zero normal component on the boundary (no-slip, symmetry or
    periodic), ``(phi, div v) = -(grad phi, v)``, and using this form for
    the pressure right-hand side builds the boundary condition into the
    discretization instead of differentiating across the wall.
    """
    b = coef.mass
    wr = b * (coef.drdx * vx + coef.drdy * vy + coef.drdz * vz)
    ws = b * (coef.dsdx * vx + coef.dsdy * vy + coef.dsdz * vz)
    wt = b * (coef.dtdx * vx + coef.dtdy * vy + coef.dtdz * vz)
    return local_grad_transpose(wr, ws, wt, dx)


def curl(
    ux: np.ndarray, uy: np.ndarray, uz: np.ndarray, coef: Coefficients, dx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise curl of a vector field (vorticity when applied to velocity)."""
    _, duxdy, duxdz = physical_grad(ux, coef, dx)
    duydx, _, duydz = physical_grad(uy, coef, dx)
    duzdx, duzdy, _ = physical_grad(uz, coef, dx)
    wx = duzdy - duydz
    wy = duxdz - duzdx
    wz = duydx - duxdy
    return wx, wy, wz


def convective_term_collocated(
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
    u: np.ndarray,
    coef: Coefficients,
    dx: np.ndarray,
) -> np.ndarray:
    """Pointwise ``(c . grad) u`` *without* dealiasing.

    Kept for verification against the dealiased operator (both must agree
    when the fields are well resolved) and for the cheap low-Ra tests.
    """
    dudx, dudy, dudz = physical_grad(u, coef, dx)
    return cx * dudx + cy * dudy + cz * dudz
