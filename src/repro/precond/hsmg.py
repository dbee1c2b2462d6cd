"""Hybrid Schwarz multigrid: the paper's pressure preconditioner (eq. (3)).

    M0^{-1} = R0^T A0^{-1} R0 + sum_k R_k^T A~_k^{-1} R_k

Additively combines the vertex-space coarse correction with per-level
additive Schwarz smoothers (the fine solution space plus optional
intermediate polynomial levels).  The decisive structural property --
exploited by the task-overlap schedule of Section 5.3 and by the GPU
simulator -- is that the coarse term and the Schwarz term are *independent*:
:meth:`apply_parts` exposes them separately so they can run concurrently,
while :meth:`__call__` is the serial reference composition.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.precond.cache import OperatorCache
from repro.precond.coarse import CoarseGridSolver
from repro.precond.schwarz import SchwarzSmoother
from repro.sem.basis import lagrange_interpolation_matrix
from repro.sem.dealias import interp3
from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace

__all__ = ["HybridSchwarzMultigrid"]


class HybridSchwarzMultigrid:
    """Two-(or multi-)level additive Schwarz multigrid preconditioner.

    Parameters
    ----------
    space:
        The pressure function space.
    mask:
        Optional Dirichlet mask on the pressure (``None`` for the standard
        pure-Neumann pressure problem).
    mid_orders:
        Optional intermediate polynomial orders (``lx`` values) inserted
        between the fine level and the vertex space, each contributing an
        additional additive Schwarz term (the general k-level form).
    cache:
        Operator-cache handle shared by all level setups (``None`` =
        process-wide cache).
    """

    def __init__(
        self,
        space: FunctionSpace,
        mask: np.ndarray | None = None,
        mid_orders: tuple[int, ...] = (),
        cache: OperatorCache | Literal[False] | None = None,
    ) -> None:
        self.space = space
        self.mask = mask
        self.coarse = CoarseGridSolver(space, mask=mask, cache=cache)
        self.schwarz = SchwarzSmoother(space, mask=mask, cache=cache)
        # (space, smoother, mid->fine interpolation, its transpose)
        self.mid_levels: list[tuple[FunctionSpace, SchwarzSmoother, np.ndarray, np.ndarray]] = []
        fine_pts, _ = gll_points_weights(space.lx)
        for lxm in mid_orders:
            if not (2 < lxm < space.lx):
                raise ValueError(
                    f"mid level lx={lxm} must satisfy 2 < lx < {space.lx}"
                )
            mid_space = FunctionSpace(space.mesh, lxm)
            mid_mask = None
            if mask is not None:
                # Re-derive the mask on the mid space from the same labels is
                # not possible here (labels are not stored); restrict by
                # interpolating and thresholding instead.
                jm = lagrange_interpolation_matrix(np.asarray(mid_space.points), space.lx)
                mid_mask = (interp3(mask, jm) > 0.999).astype(np.float64)
                mid_mask = mid_space.gs.min(mid_mask)
            smoother = SchwarzSmoother(mid_space, mask=mid_mask, cache=cache)
            j_m2f = lagrange_interpolation_matrix(np.asarray(fine_pts), lxm)
            j_f2m = np.ascontiguousarray(j_m2f.T)
            self.mid_levels.append((mid_space, smoother, j_m2f, j_f2m))

    # -- the two independent parts -----------------------------------------

    def coarse_part(self, r: np.ndarray) -> np.ndarray:
        """``R0^T A0^{-1} R0 r`` -- the latency-bound coarse correction."""
        return self.coarse(r)

    def schwarz_part(self, r: np.ndarray) -> np.ndarray:
        """``sum_k R_k^T A~_k^{-1} R_k r`` -- the bandwidth-bound smoothers."""
        z = self.schwarz(r)
        for mid_space, smoother, j_m2f, j_f2m in self.mid_levels:
            # Weight the assembled residual by the fine counting weight so
            # the restriction is the transpose of the prolongation in the
            # gather--scatter inner product (the level stays symmetric).
            rm = mid_space.gs.add(interp3(r * self.space.gs.inv_multiplicity, j_f2m))
            zm = smoother(rm)
            z += interp3(mid_space.gs.average(zm), j_m2f)
        return z

    def apply_parts(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both parts, ``(coarse, schwarz)`` (they are data-independent).

        This is the decomposition the overlapped schedule launches on two
        streams; here the parts run sequentially but their independence is
        what the DES-based Fig. 2 study exploits.
        """
        return self.coarse_part(r), self.schwarz_part(r)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Serial composition ``z = coarse_part(r) + schwarz_part(r)``."""
        zc, zs = self.apply_parts(r)
        z = zc + zs
        if self.mask is not None:
            z *= self.mask
        return z

    def kernel_inventory(self, n_elements: int | None = None) -> dict[str, list[tuple[str, int]]]:
        """Per-part kernel sequences for the GPU simulator."""
        return {
            "coarse": self.coarse.kernel_inventory(n_elements),
            "schwarz": self.schwarz.kernel_inventory(n_elements),
        }
