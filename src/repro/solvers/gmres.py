"""Restarted GMRES with right preconditioning.

The paper's pressure solver ("a hybrid-Schwarz multigrid preconditioner
combined with GMRES").  Here the production pressure solve runs flexible CG
(:mod:`repro.solvers.fcg`) because the default preconditioner is symmetric;
GMRES is the general solver :mod:`repro.verify` and the preconditioner tests
pair with the variants that are not (one-layer overlap Schwarz, raw or
masked FDM).  Right preconditioning keeps the GMRES residual equal to the
true residual of ``A x = b``, so the stopping criterion does not depend on
the quality of the preconditioner.  An optional null-space projector keeps
the iteration orthogonal to the constant mode of the pure-Neumann pressure
problem.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import numpy.typing as npt

from repro.observability.tracer import NULL_TRACER, TracerProtocol
from repro.solvers.monitor import SolverMonitor

__all__ = ["Gmres"]

FloatArray = npt.NDArray[np.float64]
Operator = Callable[[FloatArray], FloatArray]
Dot = Callable[[FloatArray, FloatArray], float]


def _copy(r: FloatArray) -> FloatArray:
    """Unpreconditioned default: ``M^{-1} = I`` (fresh copy, callers mutate)."""
    return r.copy()


def _no_projection(u: FloatArray) -> FloatArray:
    """Default null-space projector: the problem is nonsingular."""
    return u


class Gmres:
    """GMRES(m) for general nonsingular (or consistently singular) systems.

    Parameters
    ----------
    amul, dot, precond:
        Operator action, inner product and right preconditioner ``M^{-1}``.
    restart:
        Krylov subspace dimension per cycle (Neko's default is 30).
    project_out:
        Optional in-place null-space projector applied to the right-hand
        side, to every preconditioned direction and to the solution --
        removes the constant pressure mode.
    """

    def __init__(
        self,
        amul: Operator,
        dot: Dot,
        precond: Operator | None = None,
        tol: float = 1e-7,
        maxiter: int = 300,
        restart: int = 30,
        project_out: Callable[[FloatArray], FloatArray] | None = None,
        atol: float = 1e-30,
        name: str = "gmres",
        tracer: TracerProtocol | None = None,
    ) -> None:
        if restart < 1:
            raise ValueError(f"restart must be >= 1, got {restart}")
        self.amul = amul
        self.dot = dot
        self.precond: Operator = precond if precond is not None else _copy
        self.tol = tol
        self.atol = atol
        self.maxiter = maxiter
        self.restart = restart
        self.project_out: Callable[[FloatArray], FloatArray] = (
            project_out if project_out is not None else _no_projection
        )
        self.name = name
        self.tracer: TracerProtocol = tracer if tracer is not None else NULL_TRACER

    def _norm(self, u: FloatArray) -> float:
        return float(np.sqrt(max(self.dot(u, u), 0.0)))

    def solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        """Solve ``A x = b``; returns the solution and a convergence monitor."""
        if not self.tracer.enabled:
            return self._solve(b, x0)
        with self.tracer.span(f"krylov.{self.name}") as sp:
            x, mon = self._solve(b, x0)
            sp.add("iterations", mon.iterations)
            sp.tags["converged"] = mon.converged
            sp.tags["final_residual"] = mon.final_residual
            return x, mon

    def _solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]:
        mon = SolverMonitor(tol=self.tol, atol=self.atol, name=self.name)
        b = self.project_out(b.copy())
        x = np.zeros_like(b) if x0 is None else x0.copy()

        r = b - self.amul(x) if x0 is not None else b.copy()
        self.project_out(r)
        beta = self._norm(r)
        if mon.start(beta):
            return x, mon
        target = max(self.tol * beta, mon.atol)

        total_iters = 0
        while total_iters < self.maxiter:
            m = min(self.restart, self.maxiter - total_iters)
            # Arnoldi basis and Hessenberg matrix.
            v: list[FloatArray] = [r / beta]
            # Hessenberg columns, Givens coefficients and the reduced RHS
            # live as Python floats: the recurrences are sequential scalar
            # arithmetic, where single-element ndarray indexing costs ~50x
            # a float op and dominated the per-iteration overhead.
            hcols: list[list[float]] = []
            g: list[float] = [beta] + [0.0] * m
            cs: list[float] = [0.0] * m
            sn: list[float] = [0.0] * m
            z_dirs: list[FloatArray] = []
            k_done = 0

            for k in range(m):
                z = self.precond(v[k])
                self.project_out(z)
                z_dirs.append(z)
                w = self.amul(z)
                self.project_out(w)
                # Modified Gram-Schmidt.
                hc: list[float] = []
                for i in range(k + 1):
                    hik = float(self.dot(w, v[i]))
                    hc.append(hik)
                    w -= hik * v[i]
                h_next = self._norm(w)
                hc.append(h_next)

                # Apply accumulated Givens rotations to the new column.
                for i in range(k):
                    tmp = cs[i] * hc[i] + sn[i] * hc[i + 1]
                    hc[i + 1] = -sn[i] * hc[i] + cs[i] * hc[i + 1]
                    hc[i] = tmp
                denom = float(np.hypot(hc[k], hc[k + 1]))
                if denom == 0.0:
                    hcols.append(hc)
                    k_done = k + 1
                    break
                cs[k] = hc[k] / denom
                sn[k] = hc[k + 1] / denom
                hc[k] = denom
                hc[k + 1] = 0.0
                hcols.append(hc)
                g[k + 1] = -sn[k] * g[k]
                g[k] = cs[k] * g[k]

                k_done = k + 1
                total_iters += 1
                res = abs(g[k + 1])
                mon.step(res)
                if res <= target or h_next == 0.0:
                    break
                if k + 1 < m:
                    v.append(w / h_next)

            # Back substitution for the small triangular system (a zero
            # pivot signals exact breakdown; drop that direction).
            y = [0.0] * k_done
            for i in range(k_done - 1, -1, -1):
                if hcols[i][i] == 0.0:
                    continue
                s = g[i]
                for j in range(i + 1, k_done):
                    s -= hcols[j][i] * y[j]
                y[i] = s / hcols[i][i]
            for i in range(k_done):
                x += y[i] * z_dirs[i]
            self.project_out(x)

            r = b - self.amul(x)
            self.project_out(r)
            beta = self._norm(r)
            # True-residual check (guards against Arnoldi loss of orthogonality).
            mon.residuals[-1] = beta
            mon.converged = beta <= target
            if mon.converged or k_done == 0:
                break
        return x, mon
