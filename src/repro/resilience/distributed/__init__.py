"""Distributed fault tolerance for the simulated rank world.

The paper's production runs are SPMD jobs on thousands of GPUs, where
the failure unit is a *rank* and the checkpoint unit is a *shard*.  This
package holds the distributed half of the resilience layer:

* :class:`~repro.resilience.distributed.shards.ShardedCheckpointStore` --
  the one checkpoint store (one epoch per runner checkpoint, one shard per
  rank; a serial run's epochs have one shard):
  per-rank shards in the checksummed format of :mod:`repro.core.output`
  and a two-phase stage-then-commit epoch marker, so a crash mid-save
  can never produce a mixed-epoch restore and a corrupt shard falls back
  to the last globally consistent epoch;
* :class:`~repro.resilience.distributed.workload.DistributedThermalWorkload`
  -- the reference recoverable application (implicit heat conduction
  solved step-by-step by :class:`~repro.solvers.cg.ConjugateGradient`
  with a :class:`~repro.comm.distributed_gs.DistributedGatherScatter`'s
  ``add`` and ``dot``),
  whose ``restore_shards`` is a *warm replacement*: a fresh world of the
  same size, every rank reloaded from its shard.  The chaos harness
  (:mod:`repro.resilience.chaos`) drives it through fault campaigns under
  the one recovery loop, :class:`~repro.resilience.runner.ResilientRunner`.
"""

from repro.resilience.distributed.shards import (
    EpochManifest,
    EpochWriter,
    ShardCorruptError,
    ShardedCheckpointStore,
)
from repro.resilience.distributed.workload import DistributedThermalWorkload

__all__ = [
    "EpochManifest",
    "EpochWriter",
    "ShardCorruptError",
    "ShardedCheckpointStore",
    "DistributedThermalWorkload",
]
