"""Elastic rank recovery: warm replacement or shrink-and-repartition.

When a rank dies mid-campaign the two production responses (ULFM-style
MPI practice) are:

* **warm replacement** -- a spare takes the dead rank's place, loads its
  shard from the last committed epoch, and the world continues at full
  size; cheapest when spares exist;
* **shrink** -- the world continues with one rank fewer: the surviving
  ranks repartition the dead rank's elements among themselves (here via
  :func:`~repro.comm.partition.rcb_partition`) and reload the globally
  consistent epoch onto the new partition.

:class:`WorldRecovery` implements both over a duck-typed *recoverable
application* (the reference implementation is
:class:`~repro.resilience.distributed.workload.DistributedThermalWorkload`)
exposing ``world``, ``rebuild(new_size)`` and ``restore_shards(shards)``.
Hardened-channel failures
(:class:`~repro.comm.reliable.CommTimeoutError`,
:class:`~repro.comm.reliable.CollectiveIntegrityError`) recover through
the same path with the world size unchanged -- the state still rolls back
to the last consistent epoch, which is exactly the SDC-rollback the
replicated-checksum allreduce exists to trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.resilience.distributed.shards import ShardedCheckpointStore
from repro.resilience.events import EventLog
from repro.resilience.faults import RankFailedError

__all__ = ["RecoveryExhaustedError", "RecoveryOutcome", "WorldRecovery"]

POLICIES = ("warm_replace", "shrink")


class RecoveryExhaustedError(RuntimeError):
    """More incidents than the recovery budget allows."""

    def __init__(self, message: str, events: EventLog) -> None:
        super().__init__(message)
        self.events = events


@dataclass
class RecoveryOutcome:
    """What one recovery did: which epoch, which policy, what world."""

    policy: str
    cause: str
    epoch: int
    failed_rank: int
    old_size: int
    new_size: int
    skipped_epochs: list[int] = field(default_factory=list)

    @property
    def shrunk(self) -> bool:
        return self.new_size < self.old_size


class WorldRecovery:
    """Escalation policy from comm-layer failures to a consistent restart.

    Parameters
    ----------
    store:
        The sharded checkpoint store holding committed epochs.
    policy:
        ``"warm_replace"`` keeps the world size (the dead rank is re-spawned
        from its shard); ``"shrink"`` drops one rank per rank-failure and
        repartitions.  Non-rank failures (timeouts, integrity errors)
        always restore at the current size.
    min_size:
        Shrinking stops at this world size; further rank failures fall
        back to warm replacement.
    max_recoveries:
        Incidents allowed over the application's lifetime before
        :class:`RecoveryExhaustedError` -- the bounded-attempts guarantee
        that turns fault storms into clean failures instead of livelock.
    events:
        Structured :class:`~repro.resilience.events.EventLog`; every
        recovery decision is recorded.
    """

    def __init__(
        self,
        store: ShardedCheckpointStore,
        policy: str = "warm_replace",
        min_size: int = 1,
        max_recoveries: int = 8,
        events: EventLog | None = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown recovery policy {policy!r}; choose from {POLICIES}")
        if min_size < 1:
            raise ValueError("min_size must be >= 1")
        self.store = store
        self.policy = policy
        self.min_size = min_size
        self.max_recoveries = max_recoveries
        self.events = events if events is not None else EventLog()
        self.recoveries = 0
        self.outcomes: list[RecoveryOutcome] = []

    def recover(self, app: Any, failure: BaseException) -> RecoveryOutcome:
        """Roll ``app`` back to the last consistent epoch, elastically.

        ``app`` must expose ``world`` (the current
        :class:`~repro.comm.simworld.SimWorld`), ``rebuild(new_size)``
        and ``restore_shards(shards)``.  Returns the
        :class:`RecoveryOutcome`; raises :class:`RecoveryExhaustedError`
        past the incident budget and propagates
        :class:`~repro.resilience.distributed.shards.ShardCorruptError`
        when no consistent epoch survives.
        """
        cause = type(failure).__name__
        failed_rank = int(getattr(failure, "rank", -1))
        old_size = app.world.size
        self.recoveries += 1
        self.events.record(
            "fault_detected",
            detail=str(failure),
            cause=cause,
            rank=failed_rank,
            incident=self.recoveries,
        )
        if self.recoveries > self.max_recoveries:
            raise RecoveryExhaustedError(
                f"giving up after {self.max_recoveries} recoveries: {failure}",
                self.events,
            )

        epoch, shards, skipped = self.store.restore_latest()
        for bad in skipped:
            self.events.record(
                "corrupt_checkpoint",
                step=bad,
                detail=f"epoch {bad} failed shard verification; falling back",
            )

        shrink = (
            self.policy == "shrink"
            and isinstance(failure, RankFailedError)
            and old_size > self.min_size
        )
        new_size = old_size - 1 if shrink else old_size
        app.rebuild(new_size)
        app.restore_shards(shards)

        outcome = RecoveryOutcome(
            policy="shrink" if shrink else "warm_replace",
            cause=cause,
            epoch=epoch,
            failed_rank=failed_rank,
            old_size=old_size,
            new_size=new_size,
            skipped_epochs=skipped,
        )
        self.outcomes.append(outcome)
        detail = (
            f"world {old_size}->{new_size} ranks, restored epoch {epoch}"
            if shrink
            else f"rank {failed_rank} warm-replaced from epoch {epoch}"
            if failed_rank >= 0
            else f"rolled back to epoch {epoch}"
        )
        self.events.record(
            "recovery",
            step=epoch,
            detail=detail,
            policy=outcome.policy,
            cause=cause,
            rank=failed_rank,
            old_size=old_size,
            new_size=new_size,
            skipped=list(skipped),
        )
        return outcome
