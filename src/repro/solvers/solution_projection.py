"""Solution projection: reuse previous solves as an initial-guess space.

Production Neko/Nek5000 accelerate the pressure solve by projecting each
new right-hand side onto the span of the last ``m`` solutions (Fischer's
"projection technique"): with an A-orthonormal basis ``{x_i}``, the best
initial guess is ``x0 = sum (x_i . b) x_i`` and the Krylov solver only has
to resolve the (much smaller) remainder.  In time-stepping flows the
right-hand sides vary slowly, so this typically cuts pressure iterations
by an integer factor.

The basis is A-orthonormalized with modified Gram-Schmidt using stored
``A x_i`` products, and maintaining it applies the operator once per solve.
That image of the new correction also gives the solve's true residual,
which closes it: the recurrence residual a Krylov solver stops on drifts
from ``b - A x`` by rounding, and a solve that missed its target on the true
residual resumes from it (residual replacement).  A full basis is *restarted*
from the current solution ``x0 + dx`` (Fischer's and Nek5000/NekRS's
policy), not rolled: in an incrementally orthonormalised basis direction 0
is the normalised first solution, which carries the bulk of every later
one, so dropping the oldest direction throws away most of the guess.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

import numpy as np
import numpy.typing as npt

from repro.solvers.monitor import SolverMonitor

__all__ = ["SolutionProjection"]

FloatArray = npt.NDArray[np.float64]
Operator = Callable[[FloatArray], FloatArray]
Dot = Callable[[FloatArray, FloatArray], float]


class _KrylovSolver(Protocol):
    """The solver surface :meth:`SolutionProjection.solve_with` drives."""

    tol: float
    atol: float
    maxiter: int

    def solve(
        self, b: FloatArray, x0: FloatArray | None = None
    ) -> tuple[FloatArray, SolverMonitor]: ...


class SolutionProjection:
    """A-orthonormal space of previous solutions, restarted when full.

    Parameters
    ----------
    amul, dot:
        Operator action and inner product (same objects the solver uses).
    max_dim:
        Maximum basis size; an update arriving at a full basis restarts
        it from the current solution alone.  (Neko's ``proj_pre`` default
        is 20; the memory cost is two fields per direction.)
    """

    def __init__(self, amul: Operator, dot: Dot, max_dim: int = 10) -> None:
        if max_dim < 1:
            raise ValueError("max_dim must be >= 1")
        self.amul = amul
        self.dot = dot
        self.max_dim = max_dim
        self._x: list[FloatArray] = []
        self._ax: list[FloatArray] = []
        self.last_guess_norm_fraction = 0.0

    @property
    def dim(self) -> int:
        return len(self._x)

    def clear(self) -> None:
        self._x.clear()
        self._ax.clear()

    def initial_guess(self, b: FloatArray) -> tuple[FloatArray, FloatArray]:
        """Best guess in the stored space and the deflated right-hand side.

        Returns ``(x0, b - A x0)``; with an A-orthonormal basis the
        coefficients are plain dots ``alpha_i = x_i . b``.
        """
        x0 = np.zeros_like(b)
        r = b.copy()
        if not self._x:
            self.last_guess_norm_fraction = 0.0
            return x0, r
        for xi, axi in zip(self._x, self._ax):
            alpha = self.dot(xi, r)
            if alpha != 0.0:
                x0 += alpha * xi
                r -= alpha * axi
        b_norm = float(np.sqrt(max(self.dot(b, b), 0.0)))
        r_norm = float(np.sqrt(max(self.dot(r, r), 0.0)))
        self.last_guess_norm_fraction = 1.0 - r_norm / b_norm if b_norm > 0 else 0.0
        return x0, r

    def update(
        self,
        dx: FloatArray,
        adx: FloatArray | None = None,
        guess: tuple[FloatArray, FloatArray] | None = None,
    ) -> None:
        """Fold the newly computed correction into the basis.

        ``dx`` is the solver's solution of the deflated problem; ``adx``
        its operator image (computed here if not supplied).  The direction
        is A-orthonormalized against the current basis; negligible
        remainders are discarded.  ``guess`` is the pair ``(x0, A x0)``
        that ``dx`` corrects: a full basis is emptied and restarted from
        the A-normalised ``x0 + dx``, whose image ``A x0 + A dx`` needs no
        operator application.
        """
        if adx is None:
            adx = self.amul(dx)
        if len(self._x) >= self.max_dim:
            self.clear()
            if guess is not None:
                dx, adx = guess[0] + dx, guess[1] + adx
        d = dx.copy()
        ad = adx.copy()
        for xi, axi in zip(self._x, self._ax):
            c = self.dot(xi, ad)
            d -= c * xi
            ad -= c * axi
        norm2 = self.dot(d, ad)
        scale2 = self.dot(dx, adx)
        if norm2 <= 0.0 or (scale2 > 0 and norm2 < 1e-24 * scale2):
            return
        inv = 1.0 / float(np.sqrt(norm2))
        self._x.append(d * inv)
        self._ax.append(ad * inv)

    def solve_with(
        self, solver: _KrylovSolver, b: FloatArray
    ) -> tuple[FloatArray, SolverMonitor]:
        """Deflate, solve the remainder, close on its true residual, update.

        Returns ``(x, monitor)`` for the *full* problem.  The solver's
        absolute floor is temporarily raised to ``tol * ||b||`` so a
        deflated residual already below the original problem's target
        terminates immediately -- otherwise the *relative* criterion would
        chase ``tol`` more digits below an already tiny remainder.

        The operator image ``A dx`` the basis update needs also gives the
        true residual ``r - A dx`` of the deflated problem, which replaces
        the monitor's last (recurrence) residual and decides ``converged``.
        When the recurrence converged but the true residual misses the
        target, the solver resumes from the true residual within what is
        left of its ``maxiter``; each resumption costs one more operator
        application.
        """
        x0, r = self.initial_guess(b)
        b_norm = float(np.sqrt(max(self.dot(b, b), 0.0)))
        atol, maxiter = solver.atol, solver.maxiter
        solver.atol = max(atol, solver.tol * b_norm)
        try:
            dx, mon = solver.solve(r)
            adx = self.amul(dx)
            while True:
                res = r - adx
                recurrence_converged = mon.converged
                mon.residuals[-1] = float(np.sqrt(max(self.dot(res, res), 0.0)))
                mon.converged = mon.residuals[-1] <= mon.target
                if mon.converged or not recurrence_converged or mon.iterations >= maxiter:
                    break
                solver.atol, solver.maxiter = mon.target, maxiter - mon.iterations
                ddx, more = solver.solve(res)
                if more.iterations == 0:
                    break
                dx += ddx
                adx += self.amul(ddx)
                mon.residuals += more.residuals[1:]
                mon.converged = more.converged
        finally:
            solver.atol, solver.maxiter = atol, maxiter
        # A x0 = b - r exactly: the deflation subtracted the stored images.
        self.update(dx, adx, guess=(x0, b - r))
        return x0 + dx, mon

    # -- checkpoint support ----------------------------------------------------

    def state_arrays(self) -> dict[str, FloatArray]:
        """Basis arrays for checkpointing."""
        out: dict[str, FloatArray] = {}
        for i, (x, ax) in enumerate(zip(self._x, self._ax)):
            out[f"proj_x{i}"] = x
            out[f"proj_ax{i}"] = ax
        return out

    def load_state(self, arrays: dict[str, FloatArray]) -> None:
        """Restore the basis saved by :meth:`state_arrays`.

        A basis vector saved without its image raises ``KeyError`` before
        the stored basis changes.
        """
        n = sum(key.startswith("proj_x") for key in arrays)
        # Copies: the basis must own its arrays, not views of the checkpoint.
        xs = [np.array(arrays[f"proj_x{i}"], copy=True) for i in range(n)]
        axs = [np.array(arrays[f"proj_ax{i}"], copy=True) for i in range(n)]
        self._x, self._ax = xs, axs
