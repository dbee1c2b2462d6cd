"""In-process MPI-rank simulation and domain decomposition.

The paper runs one MPI rank per logical GPU with a topology-aware
two-phase gather--scatter (local phase within the rank, shared phase over
the network).  This package reproduces that structure in one process:

* :class:`~repro.comm.simworld.SimWorld` -- the one world of N simulated
  ranks: collectives over per-rank data, full traffic accounting
  (message counts, bytes, reduction counts) for the network side of the
  performance model, and two point-to-point transports -- buffer
  ``exchange`` (per-rank chunks, injected faults, the reliable channel)
  and count-only ``exchange_batched`` rounds that scale campaigns to
  10^3..10^4 simulated ranks;
* :mod:`repro.comm.partition` -- element partitioning (linear and
  recursive coordinate bisection) with halo-quality metrics;
* :class:`~repro.comm.topology.CopyIndex` -- the one gather--scatter
  index: every node copy sorted by (gid, holder rank);
* :class:`~repro.comm.distributed_gs.DistributedGatherScatter` -- the
  two-phase gather--scatter with ``GatherScatter``'s interface (``add``
  and ``dot`` on full stacked fields), its shared phase as (gid, value)
  buffers through ``exchange`` and its ``dot`` one allreduce, so the one
  :class:`~repro.solvers.cg.ConjugateGradient` solves on the ranks;
* :class:`~repro.comm.topology.BatchedGatherScatter` -- the same dssum
  on the same stacked field with count-only rounds, flat or the paper's
  topology-aware staged exchange
  (:class:`~repro.comm.topology.NodeTopology`), bit-identical to each
  other and to the buffer path;
* :class:`~repro.comm.distributed_solver.DistributedConjugateGradient` --
  per-rank chunks in and out of that CG, kept only for the measurement
  spine's import;
* :class:`~repro.comm.costmodel.CommCostModel` -- DES-style alpha-beta
  pricing of logged exchange rounds, the "measured" side of the Fig. 3
  scaling campaign (:mod:`repro.comm.campaign`).
"""

from repro.comm.reliable import (
    CollectiveIntegrityError,
    CommTimeoutError,
    RetryPolicy,
    payload_checksum,
)
from repro.comm.simworld import SimWorld, TrafficStats
from repro.comm.costmodel import CommCostModel, CommRound
from repro.comm.partition import (
    linear_partition,
    partition_quality,
    rcb_from_centroids,
    rcb_partition,
)
from repro.comm.distributed_gs import DistributedGatherScatter
from repro.comm.distributed_solver import DistributedConjugateGradient
from repro.comm.topology import BatchedGatherScatter, CopyIndex, NodeTopology

# The batched world is SimWorld itself; the name stays only for the
# measurement spine's import and goes when the spine drops it.
BatchedWorld = SimWorld

__all__ = [
    "SimWorld",
    "TrafficStats",
    "CommRound",
    "CommCostModel",
    "RetryPolicy",
    "CommTimeoutError",
    "CollectiveIntegrityError",
    "payload_checksum",
    "linear_partition",
    "rcb_partition",
    "rcb_from_centroids",
    "partition_quality",
    "DistributedGatherScatter",
    "DistributedConjugateGradient",
    "BatchedGatherScatter",
    "CopyIndex",
    "NodeTopology",
]
