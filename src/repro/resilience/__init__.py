"""Resilience: fault injection, sharded checkpoints, rollback-and-retry.

The paper's campaign runs for weeks on 16,384 GCDs, where node failures,
transient network faults and solver blow-ups are routine; Neko survives
through checkpoint/restart and solver monitoring, and the in-situ path only
holds up at scale because it degrades gracefully instead of stalling the
solver.  This package reproduces that operational layer:

* :class:`~repro.resilience.faults.FaultInjector` -- deterministic, seeded
  fault schedules (message drop/corruption/delay in :class:`SimWorld`
  traffic, one-shot rank failures, silent-data-corruption bit flips into
  field arrays) so every recovery path is testable;
* :class:`~repro.resilience.health.HealthCheck` -- per-step finite-field
  scan, CFL ceiling and pressure-iteration streak detection;
* :class:`~repro.resilience.runner.ResilientRunner` -- wraps
  :meth:`Simulation.run` in segments: checkpoint, health-check, and on
  failure roll back to the newest valid checkpoint, reduce ``dt`` after a
  divergence, back off, and retry within a bounded attempt budget.  Each
  checkpoint is a one-shard epoch of the
  :class:`~repro.resilience.distributed.shards.ShardedCheckpointStore`,
  so a serial run restarts through the same store as a distributed one.
  Everything that happens is recorded in a structured
  :class:`~repro.resilience.events.EventLog`.

Two subpackages extend this to the simulated multi-rank fleet:

* :mod:`repro.resilience.distributed` -- the one checkpoint store
  (checksummed per-rank shards, two-phase epoch commit), elastic rank
  recovery (warm replacement or shrink-and-repartition) and the reference
  recoverable workload;
* :mod:`repro.resilience.chaos` -- seeded chaos campaigns (rank kills,
  message storms, SDC bit flips) with survival/MTTR reporting, runnable
  as ``python -m repro.resilience.chaos``.
"""

from repro.resilience.events import Event, EventLog
from repro.resilience.faults import Fault, FaultEvent, FaultInjector, RankFailedError
from repro.resilience.health import HealthCheck, HealthIssue
from repro.resilience.runner import (
    ResilientResult,
    ResilientRunner,
    RetryBudgetExceededError,
)

__all__ = [
    "Event",
    "EventLog",
    "Fault",
    "FaultEvent",
    "FaultInjector",
    "RankFailedError",
    "HealthCheck",
    "HealthIssue",
    "ResilientResult",
    "ResilientRunner",
    "RetryBudgetExceededError",
]
