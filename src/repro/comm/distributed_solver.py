"""A distributed Jacobi-CG over the simulated rank world.

Runs the same Krylov iteration as the single-rank solver but with the
SPMD data layout of the production code: every rank owns a chunk of
elements, operator applications are rank-local, continuity comes from the
two-phase distributed gather--scatter, and inner products are local dots
plus one allreduce.  Tests assert rank-count invariance of the solution,
and the traffic counters give the per-iteration communication counts an
executable definition: 1 halo exchange and 3 allreduces per CG iteration
(p.Ap, r.r, r.z), so a solve from a zero guess that converges in n
iterations performs 3 n + 1 allreduces.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.comm.distributed_gs import DistributedGatherScatter
from repro.comm.simworld import SimWorld
from repro.solvers.monitor import SolverMonitor

__all__ = ["DistributedConjugateGradient"]

LocalOperator = Callable[[int, np.ndarray], np.ndarray]


class DistributedConjugateGradient:
    """CG on per-rank element chunks.

    Parameters
    ----------
    local_amul:
        ``(rank, chunk) -> chunk`` applying the *unassembled* elementwise
        operator to a rank's elements (no communication inside).
    dgs:
        The distributed gather--scatter assembling results across ranks.
    world:
        Supplies the allreduce for inner products.
    local_mask:
        Optional per-rank Dirichlet masks.
    """

    def __init__(
        self,
        local_amul: LocalOperator,
        dgs: DistributedGatherScatter,
        world: SimWorld,
        local_mask: list[np.ndarray] | None = None,
        precond_diag: list[np.ndarray] | None = None,
        tol: float = 1e-8,
        maxiter: int = 500,
    ) -> None:
        self.local_amul = local_amul
        self.dgs = dgs
        self.world = world
        self.local_mask = local_mask
        self.precond_diag = precond_diag
        self.tol = tol
        self.maxiter = maxiter

    # -- distributed primitives --------------------------------------------

    def _amul(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        out = self.dgs.add([self.local_amul(r, c) for r, c in enumerate(chunks)])
        if self.local_mask is not None:
            out = [o * m for o, m in zip(out, self.local_mask)]
        return out

    def _apply_precond(
        self, r: list[np.ndarray], out: list[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """Apply the (diagonal) preconditioner; ``out`` reuses buffers."""
        if out is None:
            out = [np.empty_like(c) for c in r]
        if self.precond_diag is None:
            for o, c in zip(out, r):
                np.copyto(o, c)
        else:
            for o, c, d in zip(out, r, self.precond_diag):
                np.multiply(c, d, out=o)
        return out

    # -- the solver -----------------------------------------------------------

    def solve(
        self, b_chunks: list[np.ndarray], x0: list[np.ndarray] | None = None
    ) -> tuple[list[np.ndarray], SolverMonitor]:
        """Solve ``A x = b``; returns per-rank chunks.

        ``x0`` warm-starts the iteration (one extra operator application
        for the true initial residual); the default is a zero guess.  The
        elastic-recovery path resumes a solve from the last consistent
        epoch's solution this way instead of paying full price again.
        """
        mon = SolverMonitor(tol=self.tol, name="dist-cg")
        if x0 is None:
            x = [np.zeros_like(c) for c in b_chunks]
            r = [c.copy() for c in b_chunks]
        else:
            x = [np.array(c, copy=True) for c in x0]
            ax = self._amul(x)
            r = [b - a for b, a in zip(b_chunks, ax)]
        z = self._apply_precond(r)
        rho = self.dgs.dot(r, z)
        rnorm = float(np.sqrt(max(self.dgs.dot(r, r), 0.0)))
        if mon.start(rnorm):
            return x, mon
        p = [c.copy() for c in z]

        for _ in range(self.maxiter):
            ap = self._amul(p)
            pap = self.dgs.dot(p, ap)
            if pap <= 0.0:
                break
            alpha = rho / pap
            for xr, pr, rr, apr in zip(x, p, r, ap):
                xr += alpha * pr
                rr -= alpha * apr
            rnorm = float(np.sqrt(max(self.dgs.dot(r, r), 0.0)))
            if mon.step(rnorm):
                break
            z = self._apply_precond(r, out=z)
            rho_new = self.dgs.dot(r, z)
            beta = rho_new / rho
            rho = rho_new
            # In-place recurrence update per chunk: beta*p + z is bitwise
            # identical to z + beta*p and reuses the direction buffers.
            for zr, pr in zip(z, p):
                pr *= beta
                pr += zr
        return x, mon
