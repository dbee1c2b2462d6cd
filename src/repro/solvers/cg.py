"""Preconditioned conjugate-gradient solver.

The one CG of the repo: Jacobi-CG for the velocity/temperature Helmholtz
solves (the paper's configuration) and hybrid Schwarz multigrid CG for the
pressure Poisson solve, where the paper runs GMRES -- with symmetric
counting weights the preconditioner is SPD in the gather--scatter inner
product, so CG applies and needs three work vectors instead of an Arnoldi
basis (the NekRS configuration, arXiv:2104.05829).  The operator,
preconditioner and inner product are injected as callables, mirroring
Neko's abstract ``ax``/``pc``/``glsc3`` interfaces, so the same solver runs
on the plain CPU arrays and the distributed rank simulator.

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
    """Unpreconditioned default: ``M^{-1} = I``; also the no-op projector."""
    return r


class ConjugateGradient:
    """CG for symmetric positive (semi-)definite systems ``A x = b``.

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
    project_out:
        Optional in-place null-space projector, applied to the initial
        residual, to every operator image and preconditioned residual and
        to the solution -- removes the constant pressure mode of a
        pure-Neumann problem.

    A solve stops early, keeping the best iterate, when ``<p, A p>`` or
    ``<r, M^{-1} r>`` is not positive: the operator or the preconditioner
    lost definiteness.  ``amul`` and ``precond`` are looked up on the
    instance at every application, so a wrapper set there sees every call.
    """

    def __init__(
        self,
        amul: Operator,
        dot: Dot,
        precond: Operator | None = None,
        tol: float = 1e-8,
        maxiter: int = 500,
        atol: float = 1e-30,
        name: str = "cg",
        tracer: TracerProtocol | None = None,
        project_out: Operator | None = None,
    ) -> None:
        self.amul = amul
        self.dot = dot
        self.precond: Operator = precond if precond is not None else _identity
        self.tol = tol
        self.atol = atol
        self.maxiter = maxiter
        self.name = name
        self.tracer: TracerProtocol = tracer if tracer is not None else NULL_TRACER
        self.project_out: Operator = project_out if project_out is not None else _identity

    def solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        """Solve ``A x = b``; returns the solution and a convergence monitor."""
        return traced_solve(self.tracer, self.name, self._solve, b, x0)

    def _solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        mon = SolverMonitor(tol=self.tol, atol=self.atol, name=self.name)
        project = self.project_out
        x = np.zeros_like(b) if x0 is None else x0.copy()

        r = project(b - self.amul(x) if x0 is not None else b.copy())
        z = project(self.precond(r))
        rho = self.dot(r, z)
        rnorm = float(np.sqrt(max(self.dot(r, r), 0.0)))
        bnorm = rnorm if x0 is None else float(np.sqrt(max(self.dot(b, b), 0.0)))

        if mon.start(rnorm, reference=bnorm):
            return project(x), mon

        p = z.copy()
        for _ in range(self.maxiter):
            ap = project(self.amul(p))
            pap = self.dot(p, ap)
            if pap <= 0.0 or rho <= 0.0:
                # Operator or preconditioner lost positive-definiteness
                # (breakdown); keep the best iterate rather than diverging.
                break
            alpha = rho / pap
            x += alpha * p
            r -= alpha * ap
            rnorm = float(np.sqrt(max(self.dot(r, r), 0.0)))
            if mon.step(rnorm):
                break
            z = project(self.precond(r))
            rho_new = self.dot(r, z)
            beta = rho_new / rho
            rho = rho_new
            # In-place recurrence update: beta*p + z is bitwise identical
            # to z + beta*p and reuses p's buffer instead of allocating.
            p *= beta
            p += z
        return project(x), mon
