"""Convergence monitoring shared by all Krylov solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SolverMonitor", "IterationStreakTracker"]


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

    def as_record(self) -> dict[str, object]:
        """Flat JSON-ready digest (flight recorder, telemetry export)."""
        return {
            "name": self.name,
            "iterations": self.iterations,
            "converged": self.converged,
            "initial_residual": self.initial_residual,
            "final_residual": self.final_residual,
            "reference": self.reference,
            "tol": self.tol,
        }


@dataclass
class IterationStreakTracker:
    """Detects sustained solver distress across consecutive solves.

    One bad solve is noise; ``streak`` consecutive solves that either hit
    the iteration ceiling ``limit`` or fail to converge signal a run
    heading for divergence -- the pattern production monitoring watches in
    the pressure solve.  Feed it :class:`SolverMonitor` instances (or raw
    iteration counts) with :meth:`observe`; it returns ``True`` once the
    streak is reached.
    """

    limit: int
    streak: int = 3
    count: int = 0

    def observe(self, solve: "SolverMonitor | int", converged: bool = True) -> bool:
        """Record one solve; returns True when the distress streak trips."""
        if isinstance(solve, SolverMonitor):
            iterations, converged = solve.iterations, solve.converged
        else:
            iterations = int(solve)
        struggling = (not converged) or iterations >= self.limit
        self.count = self.count + 1 if struggling else 0
        return self.count >= self.streak

    def reset(self) -> None:
        self.count = 0
