"""Error-bounded truncation of modal coefficients.

Per element, the smallest-energy coefficients are dropped while the
cumulative dropped energy stays below ``(eps * ||u||_elem)^2``.  Energies
are measured in the GLL-quadrature norm the error is reported in (the
mass-weighted L^2 norm of :meth:`FunctionSpace.norm_l2`): GLL quadrature
integrates every product of two orthonormal modes exactly except the top
mode squared, so each coefficient's energy carries the product of its three
per-direction factors (:func:`gll_mode_weights`).  This bounds the
per-element (and hence global) relative error of the *truncation stage* by
``eps`` in that norm on affine elements.  Elements whose
energy is negligible relative to the global field are truncated against
the global scale instead, so that near-quiescent regions (e.g. the
cylinder core at early times) do not keep noise-level modes alive.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gll_mode_weights", "truncation_mask", "truncate_relative"]


def gll_mode_weights(lx: int) -> np.ndarray:
    """``(lx, lx, lx)`` GLL-quadrature norms^2 of the orthonormal modes.

    With ``lx`` GLL points (degree ``N = lx - 1``) every mode of degree
    below ``N`` keeps norm 1; the degree-``N`` mode reads ``(2N+1)/N``.
    A tensor mode's weight is the product of its three factors.
    """
    w = np.ones(lx)
    if lx > 1:
        w[-1] = (2 * lx - 1) / (lx - 1)
    return w[:, None, None] * w[None, :, None] * w[None, None, :]


def truncation_mask(uh: np.ndarray, eps: float, element_volumes: np.ndarray | None = None) -> np.ndarray:
    """Boolean keep-mask for the modal coefficients.

    Parameters
    ----------
    uh:
        ``(nelv, lx, lx, lx)`` modal coefficients.
    eps:
        Relative L^2 error budget of the truncation stage, in the
        GLL-weighted coefficient norm.
    element_volumes:
        Optional per-element volume factors making the energy bookkeeping
        physical on graded meshes; defaults to uniform.
    """
    if eps < 0:
        raise ValueError("error bound must be non-negative")
    nelv = uh.shape[0]
    nmodes = int(np.prod(uh.shape[1:]))
    flat = uh.reshape(nelv, nmodes)
    vol = np.ones(nelv) if element_volumes is None else np.asarray(element_volumes, dtype=np.float64)

    energy = flat**2 * vol[:, None] * gll_mode_weights(uh.shape[-1]).reshape(1, nmodes)
    elem_energy = energy.sum(axis=1)
    total_energy = float(elem_energy.sum())
    if total_energy == 0.0:
        return np.zeros(uh.shape, dtype=bool)

    # Budget per element: the max of its own relative budget and its share
    # of the global budget (protects against noise retention in dead zones).
    budget = np.maximum(eps**2 * elem_energy, eps**2 * total_energy / nelv * 1e-6)

    order = np.argsort(energy, axis=1)  # ascending magnitude
    sorted_energy = np.take_along_axis(energy, order, axis=1)
    csum = np.cumsum(sorted_energy, axis=1)
    drop_sorted = csum <= budget[:, None]
    # Map back to the original mode positions.
    drop = np.zeros_like(drop_sorted)
    np.put_along_axis(drop, order, drop_sorted, axis=1)
    keep = ~drop
    return keep.reshape(uh.shape)


def truncate_relative(
    uh: np.ndarray, eps: float, element_volumes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated coefficients and the keep-mask."""
    keep = truncation_mask(uh, eps, element_volumes)
    out = np.where(keep, uh, 0.0)
    return out, keep
