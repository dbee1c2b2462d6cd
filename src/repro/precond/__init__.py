"""Preconditioners for the SEM pressure and Helmholtz solves.

The centrepiece is the paper's two-level additive overlapping Schwarz
multigrid (eq. (3)):

    M0^{-1} = R0^T A0^{-1} R0  +  sum_k Rk^T  Ak^{-1} Rk

* the coarse term restricts to the element-vertex (Q1) space and solves
  there exactly with a cached sparse factorization (``coarse.py``);
* the fine term solves a separable local Poisson problem on every element
  with the fast diagonalization method on a one-ghost-point extended grid
  (``fdm.py``), combined additively with counting weights (``schwarz.py``);
* ``hsmg.py`` assembles the two (or more) levels into the hybrid Schwarz
  multigrid object used as the pressure preconditioner, exposing the
  coarse/fine split that the task-overlap schedule of Section 5.3 runs on
  parallel streams.

Velocity and temperature use the plain Jacobi preconditioner
(``jacobi.py``) exactly as in the paper.
"""

from repro.precond.cache import (
    CacheKey,
    OperatorCache,
    global_cache,
    reset_global_cache,
    resolve_cache,
)
from repro.precond.jacobi import JacobiPrecond, helmholtz_diagonal
from repro.precond.fdm import FastDiagonalization
from repro.precond.schwarz import SchwarzSmoother
from repro.precond.coarse import CoarseGridSolver
from repro.precond.hsmg import HybridSchwarzMultigrid

__all__ = [
    "JacobiPrecond",
    "helmholtz_diagonal",
    "FastDiagonalization",
    "SchwarzSmoother",
    "CoarseGridSolver",
    "HybridSchwarzMultigrid",
    "CacheKey",
    "OperatorCache",
    "global_cache",
    "reset_global_cache",
    "resolve_cache",
]
