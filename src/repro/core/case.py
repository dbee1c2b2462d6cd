"""Case configuration for Rayleigh-Benard simulations.

Non-dimensionalization follows the paper (eq. (1)): lengths by the cell
height ``H``, velocities by the free-fall velocity, temperatures by the
plate temperature difference.  The momentum diffusivity is then
``sqrt(Pr/Ra)``, the thermal diffusivity ``1/sqrt(Ra Pr)`` and buoyancy
enters as ``+T e_z``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sem.mesh import HexMesh

__all__ = ["CaseConfig"]


@dataclass
class CaseConfig:
    """Everything needed to set up a Boussinesq RBC simulation.

    Attributes
    ----------
    mesh:
        The computational mesh (box or cylinder).
    lx:
        GLL points per direction (polynomial degree ``lx - 1``; the paper's
        production runs use degree 7, i.e. ``lx = 8``).
    rayleigh, prandtl:
        The two governing parameters.
    dt:
        Constant time-step size (free-fall units).
    time_order:
        BDF/EXT target order (paper: 3).
    no_slip_labels:
        Boundaries with ``u = 0``.
    temperature_bcs:
        ``label -> value`` Dirichlet map for the temperature (the plates);
        unlisted boundaries are insulated (zero-flux).
    initial_temperature:
        Callable ``(x, y, z) -> T`` for the initial condition; defaults to
        the conductive profile plus a deterministic multi-mode perturbation
        that triggers convection above onset.
    pressure_tol / velocity_tol / temperature_tol:
        Tolerances of the three linear solves, each relative to the norm of
        that solve's right-hand side, ``||r|| <= tol * ||b||`` -- not to the
        residual of its initial guess, so the guesses (previous-solutions
        projection for the pressure increment, EXT-k extrapolated history
        for velocity and temperature) shorten the solves without moving
        their targets.  The pressure right-hand side is that of the
        *increment* equation.
    pressure_projection_dim:
        Size of the previous-solutions projection space accelerating the
        pressure solve (0 disables); a full space restarts from the
        current solution.  The default of 20 matches Neko's production
        settings.  Measured over 300 steps of the Ra = 1e5 p5 box:
        48.3 pressure iterations per step without it, 16.1 with 8
        directions, 13.4 with 20, 11.6 with 40 (two fields of memory per
        direction).
    adaptive_cfl:
        When set, the time step adapts to hold the Courant number near
        this target (the BDF/EXT coefficients follow the steps taken);
        ``dt`` then only sets the initial step, bounded by
        ``[dt_min, dt_max]``.
    dealias:
        Apply 3/2-rule overintegration to advection (paper: yes).
    """

    mesh: HexMesh
    lx: int = 8
    rayleigh: float = 1.0e5
    prandtl: float = 1.0
    dt: float = 1.0e-3
    time_order: int = 3
    no_slip_labels: tuple[str, ...] = ()
    temperature_bcs: dict[str, float] = field(default_factory=dict)
    initial_temperature: object | None = None
    pressure_tol: float = 1.0e-5
    velocity_tol: float = 1.0e-9
    temperature_tol: float = 1.0e-9
    pressure_projection_dim: int = 20
    adaptive_cfl: float | None = None
    dt_min: float = 1.0e-6
    dt_max: float = 5.0e-2
    dealias: bool = True
    name: str = "rbc"

    @property
    def viscosity(self) -> float:
        """Non-dimensional momentum diffusivity ``sqrt(Pr/Ra)``."""
        return float(np.sqrt(self.prandtl / self.rayleigh))

    @property
    def conductivity(self) -> float:
        """Non-dimensional thermal diffusivity ``1/sqrt(Ra Pr)``."""
        return float(1.0 / np.sqrt(self.rayleigh * self.prandtl))

    def validate(self) -> None:
        """Raise on obviously inconsistent settings."""
        if self.lx < 3:
            raise ValueError("RBC cases need lx >= 3 (degree >= 2)")
        if self.rayleigh <= 0 or self.prandtl <= 0:
            raise ValueError("Ra and Pr must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.time_order not in (1, 2, 3):
            raise ValueError(f"time_order must be 1, 2 or 3, got {self.time_order}")
        if min(self.pressure_tol, self.velocity_tol, self.temperature_tol) <= 0:
            raise ValueError("solver tolerances must be positive")
        if self.pressure_projection_dim < 0:
            raise ValueError("pressure_projection_dim must be >= 0")
        if self.adaptive_cfl is not None and self.adaptive_cfl <= 0:
            raise ValueError("adaptive_cfl must be positive")
        if self.dt_min > self.dt_max:
            raise ValueError(f"dt_min {self.dt_min} exceeds dt_max {self.dt_max}")
        known = set(self.mesh.boundary_labels())
        for lab in self.no_slip_labels:
            if lab not in known:
                raise ValueError(f"no-slip label {lab!r} not on mesh (has {sorted(known)})")
        for lab in self.temperature_bcs:
            if lab not in known:
                raise ValueError(f"temperature BC label {lab!r} not on mesh")
