"""Whole-application performance model of Neko on LUMI and Leonardo.

The paper's scaling results (Fig. 3) and wall-time distribution (Fig. 4)
were measured on machines we cannot access; this package models them from
first principles, parameterized by Table 1:

* :mod:`repro.perfmodel.machine` -- the one Table 1 record per system:
  hardware/software description, the accelerator (:class:`GpuModel`, also
  the Fig. 2 DES device) and the alpha-beta network model (halo exchanges
  and log-P allreduces) that prices every message, closed form and DES;
* :mod:`repro.perfmodel.workmodel` -- memory-traffic / kernel-launch /
  reduction counts of one time step of the P_N-P_N solver, phase by phase,
  with the same structure as the real Python solver in ``repro.core``;
* :mod:`repro.perfmodel.scaling` -- strong-scaling sweeps (Fig. 3) with
  the overlapped-preconditioner flag as an ablation;
* :mod:`repro.perfmodel.breakdown` -- the per-phase wall-time distribution
  (Fig. 4).
"""

from repro.perfmodel.machine import MachineSpec, LUMI, LEONARDO, platform_table
from repro.perfmodel.workmodel import SEMWorkModel, PhaseCost
from repro.perfmodel.scaling import StrongScalingStudy, ScalingPoint
from repro.perfmodel.breakdown import walltime_breakdown

__all__ = [
    "MachineSpec",
    "LUMI",
    "LEONARDO",
    "platform_table",
    "SEMWorkModel",
    "PhaseCost",
    "StrongScalingStudy",
    "ScalingPoint",
    "walltime_breakdown",
]
