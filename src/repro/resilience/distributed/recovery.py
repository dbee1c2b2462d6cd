"""Rank recovery by warm replacement.

When a rank dies mid-campaign a spare takes its place (ULFM-style MPI
practice): the world is rebuilt at full size, every rank reloads its
shard of the last committed epoch, and the run continues.

:class:`WorldRecovery` implements that over a duck-typed *recoverable
application* (the reference implementation is
:class:`~repro.resilience.distributed.workload.DistributedThermalWorkload`)
exposing ``rebuild()`` and ``restore_shards(shards)``.
Hardened-channel failures
(:class:`~repro.comm.reliable.CommTimeoutError`,
:class:`~repro.comm.reliable.CollectiveIntegrityError`) recover through
the same path -- the state rolls back to the last consistent epoch, which
is exactly the SDC-rollback the replicated-checksum allreduce exists to
trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.resilience.distributed.shards import ShardedCheckpointStore
from repro.resilience.events import EventLog

__all__ = ["RecoveryExhaustedError", "RecoveryOutcome", "WorldRecovery"]


class RecoveryExhaustedError(RuntimeError):
    """More incidents than the recovery budget allows."""

    def __init__(self, message: str, events: EventLog) -> None:
        super().__init__(message)
        self.events = events


@dataclass
class RecoveryOutcome:
    """What one recovery did: why, and which epoch it restored."""

    cause: str
    epoch: int
    failed_rank: int
    skipped_epochs: list[int] = field(default_factory=list)


class WorldRecovery:
    """Escalation from comm-layer failures to a consistent restart.

    Parameters
    ----------
    store:
        The sharded checkpoint store holding committed epochs.
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
        max_recoveries: int = 8,
        events: EventLog | None = None,
    ) -> None:
        self.store = store
        self.max_recoveries = max_recoveries
        self.events = events if events is not None else EventLog()
        self.recoveries = 0
        self.outcomes: list[RecoveryOutcome] = []

    def recover(self, app: Any, failure: BaseException) -> RecoveryOutcome:
        """Roll ``app`` back to the last consistent epoch on a fresh world.

        ``app`` must expose ``rebuild()`` and ``restore_shards(shards)``.
        Returns the :class:`RecoveryOutcome`; raises
        :class:`RecoveryExhaustedError` past the incident budget and
        propagates
        :class:`~repro.resilience.distributed.shards.ShardCorruptError`
        when no consistent epoch survives.
        """
        cause = type(failure).__name__
        failed_rank = int(getattr(failure, "rank", -1))
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
        app.rebuild()
        app.restore_shards(shards)

        outcome = RecoveryOutcome(
            cause=cause, epoch=epoch, failed_rank=failed_rank, skipped_epochs=skipped
        )
        self.outcomes.append(outcome)
        detail = (
            f"rank {failed_rank} warm-replaced from epoch {epoch}"
            if failed_rank >= 0
            else f"rolled back to epoch {epoch}"
        )
        self.events.record(
            "recovery",
            step=epoch,
            detail=detail,
            cause=cause,
            rank=failed_rank,
            skipped=list(skipped),
        )
        return outcome
