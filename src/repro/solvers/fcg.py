"""Flexible preconditioned conjugate gradients for the pressure Poisson solve.

The consistent pressure operator is symmetric positive semi-definite in the
gather--scatter inner product, and since the Schwarz counting weights were
made symmetric (``W^{1/2} (sum R_k^T A_k^{-1} R_k) W^{1/2}``) so is the
default hybrid Schwarz multigrid: its symmetry defect
``|<M r1, r2> - <r1, M r2>| / |<M r1, r2>|`` is 5e-15 on the box and on the
deformed cylinder.  CG therefore applies, and replaces GMRES's Arnoldi basis
and its orthogonalisation by short recurrences on three work vectors -- the
NekRS configuration (arXiv:2104.05829).

The *flexible* (Polak--Ribiere) direction update
``beta = <z_new, r_new - r_old> / <z_old, r_old>`` keeps the iteration
convergent when the preconditioner is only approximately a fixed symmetric
operator: the fixed-iteration coarse CG (defect 6e-6 to 8e-3) is admissible.
The one-layer overlap smoother (1e-2 to 1.7e-1) and the raw FDM (5e-3 to
1.0) are not; they stay GMRES material (:mod:`repro.solvers.gmres`).

The iteration stops on the recurrence residual and is closed by one
evaluation of the true residual ``b - A x``; if that misses the target the
recurrence is restarted from it (residual replacement) and iterated further.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import numpy.typing as npt

from repro.observability.tracer import NULL_TRACER, TracerProtocol
from repro.solvers.monitor import SolverMonitor, traced_solve

__all__ = ["FlexibleCG"]

FloatArray = npt.NDArray[np.float64]
Operator = Callable[[FloatArray], FloatArray]


def _copy(r: FloatArray) -> FloatArray:
    """Unpreconditioned default: ``M^{-1} = I`` (fresh copy, the solver mutates)."""
    return r.copy()


def _no_projection(u: FloatArray) -> FloatArray:
    """Default null-space projector: the problem is nonsingular."""
    return u


def _dot(u: FloatArray, v: FloatArray) -> float:
    return float(np.dot(u.reshape(-1), v.reshape(-1)))


def _norm(r: FloatArray, wr: FloatArray) -> float:
    """``sqrt(<r, r>)`` from ``r`` and ``W * r``."""
    return float(np.sqrt(max(_dot(r, wr), 0.0)))


class FlexibleCG:
    """Flexible PCG for symmetric positive (semi-)definite systems ``A x = b``.

    Parameters
    ----------
    amul, precond:
        Operator action and preconditioner ``z = M^{-1} r``.  Both are
        looked up on the instance at every application.
    weight:
        Pointwise weight ``W`` of the inner product
        ``<u, v> = sum(u * W * v)`` in which ``A`` and ``M^{-1}`` are
        symmetric (the gather--scatter counting weight; ones for a dense
        system).  An iteration forms ``W * Ap`` and ``W * r`` once each and
        takes its four inner products as plain BLAS dots against them.
    tol, atol, maxiter:
        Stop when ``||r|| <= max(tol * ||r_0||, atol)`` or after ``maxiter``
        iterations in total.
    project_out:
        Optional in-place null-space projector applied to the right-hand
        side, to every preconditioned residual and operator image and to
        the solution -- removes the constant pressure mode.

    Attributes
    ----------
    closing_ax:
        ``A x`` of the solution the last :meth:`solve` returned, as
        evaluated for its closing true residual.
    """

    def __init__(
        self,
        amul: Operator,
        weight: FloatArray,
        precond: Operator | None = None,
        tol: float = 1e-7,
        maxiter: int = 300,
        project_out: Callable[[FloatArray], FloatArray] | None = None,
        atol: float = 1e-30,
        name: str = "fcg",
        tracer: TracerProtocol | None = None,
    ) -> None:
        self.amul = amul
        self.weight = weight
        self.precond: Operator = precond if precond is not None else _copy
        self.tol = tol
        self.atol = atol
        self.maxiter = maxiter
        self.project_out: Callable[[FloatArray], FloatArray] = (
            project_out if project_out is not None else _no_projection
        )
        self.name = name
        self.tracer: TracerProtocol = tracer if tracer is not None else NULL_TRACER
        self.closing_ax: FloatArray | None = None

    def solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        """Solve ``A x = b``; returns the solution and a convergence monitor."""
        return traced_solve(self.tracer, self.name, self._solve, b, x0)

    def _solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        mon = SolverMonitor(tol=self.tol, atol=self.atol, name=self.name)
        weight = self.weight
        b = self.project_out(b.copy())
        if x0 is None:
            x = np.zeros_like(b)
            ax = np.zeros_like(b)
        else:
            x = x0.copy()
            ax = self.amul(x)
        r = self.project_out(b - ax)
        wr = weight * r
        rnorm = _norm(r, wr)
        if mon.start(rnorm):
            self.closing_ax = ax
            return x, mon
        target = mon.target

        p = np.empty_like(b)
        wap = np.empty_like(b)
        step = np.empty_like(b)
        iters = 0
        while True:
            z = self.project_out(self.precond(r))
            rho = _dot(z, wr)
            np.copyto(p, z)
            broke_down = False
            while iters < self.maxiter:
                ap = self.project_out(self.amul(p))
                np.multiply(weight, ap, out=wap)
                pap = _dot(p, wap)
                if pap <= 0.0 or rho <= 0.0:
                    # Operator or preconditioner lost positive-definiteness:
                    # keep the best iterate rather than diverging silently.
                    broke_down = True
                    break
                alpha = rho / pap
                np.multiply(p, alpha, out=step)
                x += step
                np.multiply(ap, alpha, out=step)
                r -= step
                np.multiply(weight, r, out=wr)
                rnorm = _norm(r, wr)
                iters += 1
                if mon.step(rnorm):
                    break
                z = self.project_out(self.precond(r))
                rho_new = _dot(z, wr)
                # Polak--Ribiere: <z, r_new - r_old> = -alpha <z, Ap>.
                beta = -alpha * _dot(z, wap) / rho
                rho = rho_new
                p *= beta
                p += z

            # Close on the true residual: the recurrence drifts from it by
            # rounding, faster under an inexact preconditioner.
            self.project_out(x)
            ax = self.amul(x)
            np.subtract(b, ax, out=r)
            self.project_out(r)
            np.multiply(weight, r, out=wr)
            rnorm = _norm(r, wr)
            mon.residuals[-1] = rnorm
            mon.converged = rnorm <= target
            if mon.converged or broke_down or iters >= self.maxiter:
                break
        self.closing_ax = ax
        return x, mon
