"""Convergence monitoring shared by all Krylov solvers."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.tracer import TracerProtocol

__all__ = ["SolverMonitor", "traced_solve"]

FloatArray = npt.NDArray[np.float64]


@dataclass
class SolverMonitor:
    """Record of one linear solve: residual history and outcome.

    ``residuals[0]`` is the initial residual norm; one entry is appended per
    iteration.  ``reference`` is the norm ``tol`` is measured against, as
    handed to :meth:`start`: the initial residual unless the solver knows a
    larger scale for the problem (:class:`~repro.solvers.cg.ConjugateGradient`
    passes ``||b||``, so a good initial guess shortens the solve instead of
    moving the target).  ``converged`` reflects ``||r|| <= target`` with
    ``target = max(tol * reference, atol)``; a solve whose initial residual
    already meets it takes no iteration.
    """

    tol: float
    atol: float = 1e-30
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    name: str = ""
    reference: float = float("nan")

    @property
    def iterations(self) -> int:
        """Number of iterations performed (excludes the initial residual)."""
        return max(0, len(self.residuals) - 1)

    @property
    def initial_residual(self) -> float:
        return self.residuals[0] if self.residuals else float("nan")

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")

    @property
    def target(self) -> float:
        """The residual norm at which the solve counts as converged."""
        return max(self.tol * self.reference, self.atol)

    def start(self, r0: float, reference: float | None = None) -> bool:
        """Record the initial residual; returns True if already converged.

        ``reference`` is the scale ``tol`` is relative to.  It never drops
        below ``r0`` (no solve is asked for more than ``tol`` of its own
        initial residual), which is also what keeps a zero right-hand side
        with a non-zero guess solvable.
        """
        self.residuals = [r0]
        self.reference = r0 if reference is None else max(reference, r0)
        self.converged = r0 <= self.target
        return self.converged

    def step(self, r: float) -> bool:
        """Record an iteration residual; returns True on convergence."""
        self.residuals.append(r)
        self.converged = r <= self.target
        return self.converged

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "converged" if self.converged else "NOT converged"
        return (
            f"{self.name or 'solve'}: {status} in {self.iterations} iters, "
            f"||r|| {self.initial_residual:.3e} -> {self.final_residual:.3e} "
            f"(tol {self.tol:.1e} of {self.reference:.3e})"
        )


def traced_solve(
    tracer: TracerProtocol,
    name: str,
    solve: Callable[[FloatArray, FloatArray | None], tuple[FloatArray, SolverMonitor]],
    b: FloatArray,
    x0: FloatArray | None,
) -> tuple[FloatArray, SolverMonitor]:
    """Run ``solve(b, x0)`` inside a ``krylov.<name>`` span.

    The span counts the solve's ``iterations`` and is tagged with whether it
    ``converged`` and its ``initial_residual`` / ``final_residual``, so a
    trace alone shows a solve starting from a worse residual or needing
    more iterations.  Under the no-op tracer the solve runs bare.
    """
    if not tracer.enabled:
        return solve(b, x0)
    with tracer.span(f"krylov.{name}") as sp:
        x, mon = solve(b, x0)
        sp.add("iterations", mon.iterations)
        sp.tags["converged"] = mon.converged
        sp.tags["initial_residual"] = mon.initial_residual
        sp.tags["final_residual"] = mon.final_residual
        return x, mon
