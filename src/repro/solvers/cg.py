"""Preconditioned conjugate-gradient solver.

Matches the paper's velocity/temperature configuration: CG with a (block-)
Jacobi preconditioner.  The operator, preconditioner and inner product are
injected as callables, mirroring Neko's abstract ``ax``/``pc``/``glsc3``
interfaces, so the same solver runs on the plain CPU arrays and the
distributed rank simulator.

The stopping test is relative to the right-hand side, ``||r|| <= tol *
||b||`` (PETSc's default; NekRS stops its Helmholtz solves on the residual
itself, arXiv:2104.05829), not to the residual of the initial guess: a guess
that already explains most of ``b`` is rewarded with fewer iterations
instead of being asked for ``tol`` more digits below what it achieved.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import numpy.typing as npt

from repro.observability.tracer import NULL_TRACER, TracerProtocol
from repro.solvers.monitor import SolverMonitor, traced_solve

__all__ = ["ConjugateGradient"]

FloatArray = npt.NDArray[np.float64]
Operator = Callable[[FloatArray], FloatArray]
Dot = Callable[[FloatArray, FloatArray], float]


def _identity(r: FloatArray) -> FloatArray:
    """Unpreconditioned default: ``M^{-1} = I``."""
    return r


class ConjugateGradient:
    """CG for symmetric positive-definite systems ``A x = b``.

    Parameters
    ----------
    amul:
        The (assembled, masked) operator action.
    dot:
        Inner product consistent with the storage layout.
    precond:
        Optional preconditioner action ``z = M^{-1} r``; must be SPD.
    tol, maxiter:
        Residual tolerance relative to ``max(||b||, ||r_0||)`` and iteration
        cap.  Without an initial guess ``r_0 = b``, so this is the classic
        ``tol * ||r_0||``; with one, the ``||r_0||`` term only matters when
        the guess is worse than none (or ``b`` vanishes), and keeps such a
        solve no stricter than ``tol`` of its own starting residual.
    fixed_iterations:
        When set, run exactly this many iterations with *no* convergence
        test -- the mode the paper uses for the coarse-grid solve ("a fixed
        number of iterations (~10)"), which avoids the extra allreduce of a
        residual norm per iteration.
    """

    def __init__(
        self,
        amul: Operator,
        dot: Dot,
        precond: Operator | None = None,
        tol: float = 1e-8,
        maxiter: int = 500,
        fixed_iterations: int | None = None,
        atol: float = 1e-30,
        name: str = "cg",
        tracer: TracerProtocol | None = None,
    ) -> None:
        self.amul = amul
        self.dot = dot
        self.precond: Operator = precond if precond is not None else _identity
        self.tol = tol
        self.atol = atol
        self.maxiter = maxiter
        self.fixed_iterations = fixed_iterations
        self.name = name
        self.tracer: TracerProtocol = tracer if tracer is not None else NULL_TRACER

    def solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        """Solve ``A x = b``; returns the solution and a convergence monitor."""
        return traced_solve(self.tracer, self.name, self._solve, b, x0)

    def _solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        mon = SolverMonitor(tol=self.tol, atol=self.atol, name=self.name)
        x = np.zeros_like(b) if x0 is None else x0.copy()

        r = b - self.amul(x) if x0 is not None else b.copy()
        z = self.precond(r)
        rho = self.dot(r, z)
        rnorm = float(np.sqrt(max(self.dot(r, r), 0.0)))
        bnorm = rnorm if x0 is None else float(np.sqrt(max(self.dot(b, b), 0.0)))

        if mon.start(rnorm, reference=bnorm) and self.fixed_iterations is None:
            return x, mon

        p = z.copy()
        niter = self.fixed_iterations if self.fixed_iterations is not None else self.maxiter
        for _ in range(niter):
            ap = self.amul(p)
            pap = self.dot(p, ap)
            if pap <= 0.0:
                # Operator lost positive-definiteness (breakdown); bail with
                # the best iterate so far rather than diverging silently.
                break
            alpha = rho / pap
            x += alpha * p
            r -= alpha * ap
            if self.fixed_iterations is None:
                rnorm = float(np.sqrt(max(self.dot(r, r), 0.0)))
                if mon.step(rnorm):
                    break
            z = self.precond(r)
            rho_new = self.dot(r, z)
            beta = rho_new / rho
            rho = rho_new
            # In-place recurrence update: beta*p + z is bitwise identical
            # to z + beta*p and reuses p's buffer instead of allocating.
            p *= beta
            p += z
        if self.fixed_iterations is not None:
            rnorm = float(np.sqrt(max(self.dot(r, r), 0.0)))
            mon.step(rnorm)
        return x, mon
