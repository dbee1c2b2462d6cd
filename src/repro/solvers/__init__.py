"""Krylov solvers used by the time-stepper.

One conjugate-gradient solver: with block-Jacobi preconditioning for the
velocity and temperature Helmholtz solves, and with the (symmetric) hybrid
Schwarz-multigrid preconditioner behind a previous-solutions projection for
the pressure Poisson equation, where the paper runs GMRES.  It is
implemented matrix-free against a user-supplied operator callable and a
user-supplied inner product (so that duplicated SEM storage and, in the
distributed case, allreduce-based dots plug in unchanged).
"""

from repro.solvers.monitor import SolverMonitor
from repro.solvers.cg import ConjugateGradient
from repro.solvers.projection import MeanProjector
from repro.solvers.solution_projection import SolutionProjection

__all__ = [
    "SolverMonitor",
    "ConjugateGradient",
    "MeanProjector",
    "SolutionProjection",
]
