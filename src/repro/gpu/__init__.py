"""Discrete-event simulation of GPU execution (Section 5.3 / Fig. 2).

The paper's task-overlap result is a *scheduling* phenomenon: the coarse
grid solve is dominated by kernel-launch latency, tiny device kernels and
host-blocking MPI reductions, while the fine Schwarz smoother is a stream
of large bandwidth-bound kernels.  Launching the two parts from separate
OpenMP threads onto separate streams (the coarse stream at high priority)
hides the launch latency and the MPI waits under the big kernels.

This package reproduces that mechanism with a discrete-event simulator:

* :class:`GpuModel` records (A100, MI250X GCD) with launch overheads,
  bandwidth, occupancy-based concurrency and the priority-scheduling
  quirk the paper notes (NVIDIA needs stream priorities for small
  kernels to progress beside large ones; AMD schedules concurrent
  kernels regardless).  They are part of the Table 1 machine record and
  live in :mod:`repro.perfmodel.machine`; this package re-exports them.
* :mod:`repro.gpu.des` -- the simulator: host threads issuing launches,
  syncs, host compute and MPI waits; streams; a capacity-based device
  scheduler; full interval traces.
* :mod:`repro.gpu.schwarz` -- builds the serial and task-parallel
  additive-Schwarz schedules from the preconditioner's kernel inventory
  and measures the wall-time reduction (the Fig. 2 experiment).
"""

from repro.gpu.des import (
    DeviceSimulator,
    HostProgram,
    Launch,
    HostCompute,
    StreamSync,
    AllReduce,
    Barrier,
    TraceInterval,
)
from repro.gpu.schwarz import SchwarzOverlapStudy, SchwarzPhaseResult
from repro.perfmodel.machine import A100, MI250X_GCD, GpuModel

__all__ = [
    "GpuModel",
    "A100",
    "MI250X_GCD",
    "DeviceSimulator",
    "HostProgram",
    "Launch",
    "HostCompute",
    "StreamSync",
    "AllReduce",
    "Barrier",
    "TraceInterval",
    "SchwarzOverlapStudy",
    "SchwarzPhaseResult",
]
