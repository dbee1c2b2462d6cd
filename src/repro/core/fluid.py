"""The P_N-P_N splitting scheme for the incompressible momentum equations.

One step of the Karniadakis-Israeli-Orszag (1991) velocity-correction
scheme, as configured in the paper:

1. Advance the explicit terms: weak-form dealiased advection plus body
   forces (buoyancy), extrapolated with EXT-k, combined with the BDF-k
   history of the velocity.
2. Solve the consistent pressure Poisson equation with CG preconditioned
   by the hybrid Schwarz multigrid, behind a projection onto
   previous solutions.  (The paper runs GMRES; with the symmetric counting
   weights the preconditioner is SPD in the gather-scatter inner product and
   CG needs three work vectors instead of an Arnoldi basis -- the NekRS
   configuration.)  The right-hand side uses the integrated-by-parts form
   ``(grad phi, v*)`` so that the impermeability condition on the walls
   enters naturally (homogeneous Neumann on ``p``).
3. Solve one Helmholtz problem per velocity component with Jacobi-CG
   (:class:`~repro.core.helmholtz.HelmholtzSolver`, built once), started
   from the EXT-k extrapolation ``sum_q a_q u^{n+1-q}`` of the velocity
   history and stopped at ``velocity_tol`` relative to the right-hand side.

Deliberate simplification vs. Neko (documented in DESIGN.md): the pressure
uses the first-order homogeneous Neumann condition instead of the full
rotational high-order boundary term.  Integral RBC observables at the
modest Ra accessible here are insensitive to this.
"""

from __future__ import annotations

from concurrent.futures import wait

import numpy as np

from repro.core.case import CaseConfig
from repro.core.helmholtz import HelmholtzSolver
from repro.core.overlap import INLINE, InlineExecutor, WorkerExecutor
from repro.core.timers import RegionTimers
from repro.observability.phases import (
    PHASE_ADVECTION,
    PHASE_PRESSURE,
    PHASE_VELOCITY,
)
from repro.precond.hsmg import HybridSchwarzMultigrid
from repro.sem.bc import BoundaryMask
from repro.sem.dealias import Dealiaser
from repro.sem.operators import (
    ax_poisson,
    convective_term_collocated,
    divergence,
    physical_grad,
    weak_gradient_transpose,
)
from repro.sem.space import FunctionSpace
from repro.solvers.cg import ConjugateGradient
from repro.solvers.monitor import SolverMonitor
from repro.solvers.projection import MeanProjector
from repro.solvers.solution_projection import SolutionProjection
from repro.timeint.bdf_ext import TimeScheme

__all__ = ["FluidScheme"]


class FluidScheme:
    """Velocity/pressure integrator on a shared function space."""

    def __init__(
        self,
        space: FunctionSpace,
        config: CaseConfig,
        scheme: TimeScheme,
        timers: RegionTimers | None = None,
    ) -> None:
        self.space = space
        self.config = config
        self.scheme = scheme
        self.timers = timers if timers is not None else RegionTimers()
        self.nu = config.viscosity
        self.dt = config.dt

        # Velocity Dirichlet mask (no-slip: all components share it).
        if config.no_slip_labels:
            self.vel_mask = BoundaryMask(space, config.no_slip_labels).mask
        else:
            self.vel_mask = np.ones(space.shape)

        self.dealiaser = Dealiaser(space) if config.dealias else None

        # Velocity histories u^{n}, u^{n-1}, u^{n-2} (index 0 = newest) and
        # explicit-term (advection + forcing, weak form) histories.
        self.u = [space.zeros() for _ in range(3)]
        self.v = [space.zeros() for _ in range(3)]
        self.w = [space.zeros() for _ in range(3)]
        self.f_hist: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        self.p = space.zeros()

        # Pressure solver: CG + hybrid Schwarz multigrid, singular
        # (pure-Neumann) with the counting null-space projector.
        self.hsmg = HybridSchwarzMultigrid(space, mask=None)
        self._pressure_project = MeanProjector.counting(space.gs)

        def p_amul(u: np.ndarray) -> np.ndarray:
            return space.gs.add(ax_poisson(u, space.coef, space.dx))

        self.pressure_solver = ConjugateGradient(
            p_amul,
            space.gs.dot,
            precond=self.hsmg,
            tol=config.pressure_tol,
            maxiter=300,
            project_out=self._pressure_project,
            name="pressure",
            tracer=self.timers.tracer,
        )
        # Previous-solutions projection space (Fischer's technique; Neko's
        # proj_pre): deflates each pressure solve against recent history.
        self.pressure_projection: SolutionProjection | None = None
        if config.pressure_projection_dim > 0:
            self.pressure_projection = SolutionProjection(
                p_amul, space.gs.dot, max_dim=config.pressure_projection_dim
            )

        # Velocity Helmholtz solver, shared by the three components; h2
        # starts at the first (BDF1) step's value and follows b0 / dt.
        self.velocity_solver = HelmholtzSolver(
            space,
            self.nu,
            1.0 / self.dt,
            self.vel_mask,
            tol=config.velocity_tol,
            name="velocity",
            tracer=self.timers.tracer,
        )
        self.monitors: dict[str, SolverMonitor] = {}
        # Constant: the smoother is float64 only; benchmarks/spine still reads it.
        self.precision_fallbacks = 0

    # -- operators -----------------------------------------------------------

    def set_dt(self, dt: float) -> None:
        """Change the step size; the next step applies it."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt

    def convective_weak(
        self,
        u: np.ndarray,
        c_fine: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Weak-form advection ``(phi, (u . grad) u_comp)`` of one component."""
        cx, cy, cz = self.u[0], self.v[0], self.w[0]
        if self.dealiaser is not None:
            return self.dealiaser.convect_weak(cx, cy, cz, u, c_fine=c_fine)
        conv = convective_term_collocated(cx, cy, cz, u, self.space.coef, self.space.dx)
        return self.space.coef.mass * conv

    def fine_velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Current velocity interpolated to the dealiasing grid (reusable)."""
        if self.dealiaser is None:
            return None
        d = self.dealiaser
        return (d.to_fine(self.u[0]), d.to_fine(self.v[0]), d.to_fine(self.w[0]))

    # -- stepping ------------------------------------------------------------

    def prime_history(
        self,
        velocity_at,
        weak_forcing_at,
        t0: float,
        dt: float,
        pressure: np.ndarray | None = None,
    ) -> None:
        """Fill the multistep histories from known solution/forcing functions.

        ``velocity_at(t)`` returns the three components; ``weak_forcing_at(t)``
        the mass-weighted explicit term per component (advection plus body
        force) as a 3-tuple.  Evaluated at ``t0 - j dt``; the order ramp is
        then skipped.  ``pressure`` seeds the incremental pressure-correction
        predictor -- without it the first pressure increment carries an O(1)
        splitting transient.
        """
        for j in range(len(self.u)):
            uj, vj, wj = velocity_at(t0 - j * dt)
            self.u[j][:], self.v[j][:], self.w[j][:] = uj, vj, wj
        self.f_hist = [
            weak_forcing_at(t0 - j * dt)
            for j in range(1, self.scheme.target_order)
        ]
        if pressure is not None:
            self.p = pressure.copy()
            self._pressure_project(self.p)
        self.scheme.jump_start([dt] * (self.scheme.target_order - 1))

    def step(
        self,
        forcing_weak: tuple[np.ndarray, np.ndarray, np.ndarray],
        c_fine: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        executor: InlineExecutor | WorkerExecutor = INLINE,
    ) -> dict[str, SolverMonitor]:
        """Advance the velocity/pressure one time step.

        ``forcing_weak`` is the mass-weighted explicit body force at the
        *current* time level (for RBC: buoyancy ``B * T^n e_z``); it is
        extrapolated together with the advection term.  ``executor`` runs
        the v-component velocity solve (:mod:`repro.core.overlap`).
        """
        space = self.space
        dt = self.dt
        self.velocity_solver.set_h2(self.scheme.bdf[0] / dt)

        with self.timers.region(PHASE_ADVECTION):
            fx = -self.convective_weak(self.u[0], c_fine) + forcing_weak[0]
            fy = -self.convective_weak(self.v[0], c_fine) + forcing_weak[1]
            fz = -self.convective_weak(self.w[0], c_fine) + forcing_weak[2]
            self.f_hist.insert(0, (fx, fy, fz))
            del self.f_hist[3:]

            rhs = [
                self.scheme.history_rhs(
                    [f[comp] for f in self.f_hist], hist, space.coef.mass, dt
                )
                for comp, hist in enumerate((self.u, self.v, self.w))
            ]

        with self.timers.region(PHASE_PRESSURE):
            # Incremental pressure correction: the predictor carries the
            # previous pressure gradient, the Poisson solve yields only the
            # increment dp (second-order splitting, and a much smaller
            # right-hand side than solving for the full pressure).
            gpx, gpy, gpz = physical_grad(self.p, space.coef, space.dx)
            vstar = [
                (space.gs.add(r) * space.inv_mass_assembled - gp) * self.vel_mask
                for r, gp in zip(rhs, (gpx, gpy, gpz))
            ]
            rhs_p = space.gs.add(
                weak_gradient_transpose(vstar[0], vstar[1], vstar[2], space.coef, space.dx)
            )
            if self.pressure_projection is not None:
                self._pressure_project(rhs_p)
                dp, mon_p = self.pressure_projection.solve_with(
                    self.pressure_solver, rhs_p
                )
            else:
                dp, mon_p = self.pressure_solver.solve(rhs_p)
            self.p = self.p + dp
            self._pressure_project(self.p)

        with self.timers.region(PHASE_VELOCITY):
            px, py, pz = physical_grad(self.p, space.coef, space.dx)
            # The v solve runs beside the u and w solves; the histories
            # change only once all three are done.
            task_v = executor.submit(self._solve_velocity, rhs[1], py, self.v)
            try:
                sol_u, mon_u = self._solve_velocity(rhs[0], px, self.u)
                sol_w, mon_w = self._solve_velocity(rhs[2], pz, self.w)
            finally:
                wait([task_v])
            sol_v, mon_v = task_v.result()
            for hist, sol in ((self.u, sol_u), (self.v, sol_v), (self.w, sol_w)):
                hist.insert(0, sol)
                del hist[3:]

        self.monitors = {
            "pressure": mon_p,
            "velocity_x": mon_u,
            "velocity_y": mon_v,
            "velocity_z": mon_w,
        }
        return self.monitors

    def _solve_velocity(
        self, rhs: np.ndarray, grad_p: np.ndarray, hist: list[np.ndarray]
    ) -> tuple[np.ndarray, SolverMonitor]:
        """One component's Helmholtz solve, from the EXT-k guess of its history."""
        guess = self.scheme.extrapolate(hist)
        return self.velocity_solver.solve(rhs - self.space.coef.mass * grad_p, guess)

    # -- diagnostics -----------------------------------------------------------

    def divergence_norm(self) -> float:
        """Mass-weighted L^2 norm of ``div u`` of the current velocity."""
        d = divergence(self.u[0], self.v[0], self.w[0], self.space.coef, self.space.dx)
        return self.space.norm_l2(d)

    def kinetic_energy(self) -> float:
        """Volume-integrated kinetic energy of the current velocity."""
        sq = self.u[0] ** 2 + self.v[0] ** 2 + self.w[0] ** 2
        return 0.5 * self.space.integrate(sq)
