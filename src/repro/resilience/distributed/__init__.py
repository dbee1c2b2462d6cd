"""Distributed fault tolerance for the simulated rank world.

The paper's production runs are SPMD jobs on thousands of GPUs, where
the failure unit is a *rank* and the checkpoint unit is a *shard*.  This
package holds the distributed half of the resilience layer:

* :class:`~repro.resilience.distributed.shards.ShardedCheckpointStore` --
  the one checkpoint store (the serial runner saves one-shard epochs):
  per-rank shards in the checksummed format of :mod:`repro.core.output`
  and a two-phase stage-then-commit epoch marker, so a crash mid-save
  can never produce a mixed-epoch restore and a corrupt shard falls back
  to the last globally consistent epoch;
* :class:`~repro.resilience.distributed.recovery.WorldRecovery` -- the
  recovery that escalates
  :class:`~repro.resilience.faults.RankFailedError` (and the hardened
  channel's timeout/integrity errors) into a *warm replacement*: a fresh
  world of the same size, every rank reloaded from its shard;
* :class:`~repro.resilience.distributed.workload.DistributedThermalWorkload`
  -- the reference recoverable application (implicit heat conduction
  solved step-by-step with
  :class:`~repro.comm.distributed_solver.DistributedConjugateGradient`)
  that the chaos harness (:mod:`repro.resilience.chaos`) drives through
  fault campaigns.
"""

from repro.resilience.distributed.shards import (
    EpochManifest,
    EpochWriter,
    ShardCorruptError,
    ShardedCheckpointStore,
)
from repro.resilience.distributed.recovery import (
    RecoveryExhaustedError,
    RecoveryOutcome,
    WorldRecovery,
)
from repro.resilience.distributed.workload import (
    DistributedThermalWorkload,
    WorkloadResult,
)

__all__ = [
    "EpochManifest",
    "EpochWriter",
    "ShardCorruptError",
    "ShardedCheckpointStore",
    "RecoveryExhaustedError",
    "RecoveryOutcome",
    "WorldRecovery",
    "DistributedThermalWorkload",
    "WorkloadResult",
]
