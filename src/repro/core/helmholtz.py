"""The one Helmholtz solve path of the time stepper.

Each velocity component and the temperature advance by solving
``(h1 A + h2 B) u = f`` with ``h1`` the diffusivity and ``h2 = b0 / dt`` the
BDF mass coefficient, under Dirichlet conditions, with Jacobi-preconditioned
CG -- the paper's configuration.  :class:`HelmholtzSolver` owns everything
that solve needs (operator, Jacobi diagonal, mask, lifting of inhomogeneous
boundary data, the CG object) and is built once per scheme: a change of
``h2`` (order ramp, adaptive step) rescales it in place, so the object a
caller holds -- ``fluid.velocity_solver``, ``scalar.solver`` -- stays the one
that runs.
"""

from __future__ import annotations

import numpy as np

from repro.observability.tracer import TracerProtocol
from repro.precond.jacobi import JacobiPrecond
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace
from repro.solvers.cg import ConjugateGradient
from repro.solvers.monitor import SolverMonitor

__all__ = ["HelmholtzSolver"]


class HelmholtzSolver:
    """Jacobi-CG for ``(h1 A + h2 B) u = f`` with Dirichlet data.

    Parameters
    ----------
    space:
        The function space; its gather--scatter is looked up at every
        operator application and every reduction.
    h1, h2:
        Diffusivity and mass coefficient; ``h2`` follows the time scheme
        through :meth:`set_h2`.
    mask:
        Dirichlet mask (0 on constrained dofs, 1 elsewhere).
    tol:
        CG tolerance, relative to the norm of the right-hand side.
    lift:
        Field carrying the Dirichlet values on the masked dofs (zero
        elsewhere); ``None`` for homogeneous conditions.  The solve runs on
        the homogeneous correction ``u - lift`` so the operator stays
        symmetric, and its image ``A lift`` is kept between solves.
    """

    def __init__(
        self,
        space: FunctionSpace,
        h1: float,
        h2: float,
        mask: np.ndarray,
        tol: float,
        name: str,
        tracer: TracerProtocol | None = None,
        lift: np.ndarray | None = None,
    ) -> None:
        self.space = space
        self.h1 = h1
        self.h2 = h2
        self.mask = mask
        self.lift = lift
        self._lift_image: np.ndarray | None = None
        self.precond = JacobiPrecond(space, h1, h2, mask=mask)
        self.cg = ConjugateGradient(
            self.matvec,
            space.dot,
            precond=self.precond,
            tol=tol,
            maxiter=500,
            name=name,
            tracer=tracer,
        )

    def set_h2(self, h2: float) -> None:
        """Follow a change of ``b0 / dt``; a no-op when it did not change."""
        if h2 == self.h2:
            return
        self.h2 = h2
        self.precond.update(self.h1, h2)
        self._lift_image = None

    def _assembled(self, u: np.ndarray) -> np.ndarray:
        space = self.space
        return space.gs.add(ax_helmholtz(u, space.coef, space.dx, self.h1, self.h2))

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """The assembled, masked operator CG iterates with (its ``amul``)."""
        w = self._assembled(u)
        w *= self.mask
        return w

    def solve(self, f: np.ndarray, guess: np.ndarray) -> tuple[np.ndarray, SolverMonitor]:
        """Solve for the field with weak (unassembled) right-hand side ``f``.

        ``guess`` estimates the full field, boundary values included; the
        returned field carries the Dirichlet data exactly.
        """
        b = self.space.gs.add(f)
        lift = self.lift
        if lift is not None:
            if self._lift_image is None:
                self._lift_image = self._assembled(lift)
            b -= self._lift_image
            guess = guess - lift
        b *= self.mask
        u, mon = self.cg.solve(b, x0=guess * self.mask)
        if lift is not None:
            u *= self.mask
            u += lift
        return u, mon
