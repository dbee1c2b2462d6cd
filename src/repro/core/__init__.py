"""Core solver: case setup, P_N-P_N splitting, simulation driver.

This is the layer a user of the framework touches: build a
:class:`~repro.core.case.CaseConfig` (or use the RBC factories in
:mod:`repro.core.rbc`), construct a :class:`~repro.core.simulation.Simulation`
and call :meth:`run`.  The fluid and scalar schemes underneath implement the
paper's configuration: Karniadakis splitting, BDF3/EXT3, 3/2-rule
dealiasing, the hybrid Schwarz multigrid for the pressure (as the
preconditioner of a CG where the paper runs GMRES) and
CG + block-Jacobi for velocity and temperature.
"""

from repro.core.case import CaseConfig
from repro.core.timers import RegionTimers
from repro.core.helmholtz import HelmholtzSolver
from repro.core.fluid import FluidScheme
from repro.core.scalar import ScalarScheme
from repro.core.simulation import Simulation, StepResult
from repro.core.statistics import (
    facet_integral,
    facet_area,
    nusselt_volume,
    nusselt_plate,
    nusselt_dissipation,
    NusseltNumbers,
    compute_nusselt,
    reynolds_number,
)
from repro.core.rbc import rbc_box_case, rbc_cylinder_case
from repro.core.output import CheckpointCorruptError, FieldWriter, load_snapshot

__all__ = [
    "CheckpointCorruptError",
    "FieldWriter",
    "load_snapshot",
    "CaseConfig",
    "RegionTimers",
    "FluidScheme",
    "HelmholtzSolver",
    "ScalarScheme",
    "Simulation",
    "StepResult",
    "facet_integral",
    "facet_area",
    "nusselt_volume",
    "nusselt_plate",
    "nusselt_dissipation",
    "NusseltNumbers",
    "compute_nusselt",
    "reynolds_number",
    "rbc_box_case",
    "rbc_cylinder_case",
]
