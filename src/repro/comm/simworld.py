"""A world of simulated MPI ranks with traffic accounting.

Collectives operate on lists indexed by rank (the whole world's data is
resident in one process), which keeps the semantics of buffer-based MPI
(mpi4py's upper-case methods) while making tests deterministic: sums are
performed in rank order, so results are reproducible bit-for-bit.

Point-to-point traffic has two transports on the one world.
:meth:`SimWorld.exchange` moves real buffers, one per (src, dst) edge --
the path per-rank chunks and every injected fault take.
:meth:`SimWorld.exchange_batched` accounts a whole round from edge arrays
without moving payloads, the count-only path that lets the Fig. 3
campaign sweep 10^3..10^4 simulated ranks in seconds; it returns the
round as a :class:`~repro.comm.costmodel.CommRound` for the cost model.

A :class:`~repro.resilience.faults.FaultInjector` can be attached (the
``fault_injector`` attribute or constructor argument) to exercise the
recovery paths: point-to-point buffers pass through its ``deliver`` hook
(drop / corrupt / delayed-stale delivery) and every collective consults
``on_collective``, which raises
:class:`~repro.resilience.faults.RankFailedError` for scheduled rank
deaths.  Traffic statistics count *attempted* traffic -- a dropped
message was still sent.

Two hardening layers (both off by default, so the raw world keeps its
exact legacy traffic semantics) defend against those faults instead of
merely suffering them:

* ``retry=RetryPolicy(...)`` turns :meth:`exchange` into a reliable
  channel: buffers travel with per-edge sequence numbers and CRC32
  checksums, failed deliveries are retransmitted with jittered backoff,
  and the sequence numbers keep :class:`TrafficStats` idempotent under
  retries (logical messages count once; ``retransmissions`` counts the
  extra wire traffic).  Exhausting the budget raises
  :class:`~repro.comm.reliable.CommTimeoutError` -- never a hang.
* ``verify_collectives=True`` replicates every allreduce and compares the
  replicas' checksums, catching silent data corruption planted in a
  collective result (``collective_sdc`` faults); persistent disagreement
  raises :class:`~repro.comm.reliable.CollectiveIntegrityError`, the
  rollback trigger for :class:`~repro.resilience.distributed` recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.comm.costmodel import CommRound
from repro.comm.reliable import (
    CollectiveIntegrityError,
    CommTimeoutError,
    RetryPolicy,
    payload_checksum,
)

if TYPE_CHECKING:  # avoid a runtime repro.resilience dependency
    from repro.resilience.faults import FaultInjector

__all__ = ["SimWorld", "TrafficStats"]


@dataclass
class TrafficStats:
    """World-total counters of simulated network traffic.

    *Which* rank moved the bytes is the business of the
    :class:`~repro.comm.costmodel.CommRound` edge arrays, which
    :class:`~repro.comm.costmodel.CommCostModel` prices per rank.
    """

    allreduce_calls: int = 0
    allreduce_bytes: int = 0
    p2p_messages: int = 0
    p2p_bytes: int = 0
    barrier_calls: int = 0
    #: Reliability counters (populated only by a hardened world): extra
    #: wire sends beyond the first attempt, stale deliveries recognized by
    #: their sequence number, messages that exhausted the retry budget,
    #: and collective replicas that failed the integrity comparison.
    retransmissions: int = 0
    duplicates: int = 0
    timeouts: int = 0
    integrity_failures: int = 0

    def record_p2p(self, nbytes: int) -> None:
        """Count one point-to-point message."""
        self.p2p_messages += 1
        self.p2p_bytes += nbytes

    def record_p2p_batch(self, nbytes: np.ndarray) -> None:
        """Count a whole round of wire messages, one per entry of ``nbytes``.

        Vectorized equivalent of calling :meth:`record_p2p` per message;
        the caller has already dropped self-messages, which
        :meth:`SimWorld.exchange` does not count either.
        """
        self.p2p_messages += int(nbytes.size)
        self.p2p_bytes += int(nbytes.sum())

    def reset(self) -> None:
        self.allreduce_calls = 0
        self.allreduce_bytes = 0
        self.p2p_messages = 0
        self.p2p_bytes = 0
        self.barrier_calls = 0
        self.retransmissions = 0
        self.duplicates = 0
        self.timeouts = 0
        self.integrity_failures = 0

    def absorb(self, other: "TrafficStats") -> None:
        """Fold another stats object into this one (campaign accounting).

        Elastic recovery rebuilds the :class:`SimWorld`; the chaos report
        wants totals across every world a scenario lived in, so the old
        world's counters are absorbed before it is discarded.
        """
        self.allreduce_calls += other.allreduce_calls
        self.allreduce_bytes += other.allreduce_bytes
        self.p2p_messages += other.p2p_messages
        self.p2p_bytes += other.p2p_bytes
        self.barrier_calls += other.barrier_calls
        self.retransmissions += other.retransmissions
        self.duplicates += other.duplicates
        self.timeouts += other.timeouts
        self.integrity_failures += other.integrity_failures


class SimWorld:
    """N simulated ranks; collectives take per-rank data lists."""

    def __init__(
        self,
        size: int,
        fault_injector: "FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
        verify_collectives: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.stats = TrafficStats()
        self.fault_injector = fault_injector
        # Reliable-delivery policy for exchange() and bounded integrity
        # retries for verified collectives; None keeps the raw channel.
        self.retry = retry
        # Replicate allreduces and compare replica checksums (SDC guard).
        self.verify_collectives = verify_collectives
        # Per-edge sequence numbers and the previous payload checksum,
        # for retransmission dedup and stale-delivery classification.
        self._seq: dict[tuple[int, int], int] = {}
        self._edge_crc: dict[tuple[int, int], int] = {}

    def _check(self, per_rank: list) -> None:
        if len(per_rank) != self.size:
            raise ValueError(f"expected {self.size} per-rank entries, got {len(per_rank)}")

    def _collective(self, op: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.on_collective(op)

    # -- collective result integrity -------------------------------------------

    def _observe_result(self, op: str, result: np.ndarray) -> np.ndarray:
        """Pass a collective result through the injector's SDC hook."""
        inj = self.fault_injector
        if inj is None or not hasattr(inj, "deliver_collective"):
            return result
        return inj.deliver_collective(op, result)

    def _collective_result(
        self, op: str, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Produce a collective result, replicated-checksum verified if enabled.

        With ``verify_collectives`` the reduction runs twice and the two
        replicas' payload checksums are compared: an SDC planted in either
        replica surfaces as a mismatch, the collective is retried (the
        transient-fault model: scheduled faults fire once), and persistent
        disagreement raises :class:`CollectiveIntegrityError` for the
        recovery layer to roll back on.
        """
        if not self.verify_collectives:
            return self._observe_result(op, compute())
        budget = self.retry.max_retries if self.retry is not None else 1
        attempts = 0
        while True:
            attempts += 1
            first = self._observe_result(op, compute())
            second = self._observe_result(op, compute())
            if payload_checksum(first) == payload_checksum(second):
                return first
            self.stats.integrity_failures += 1
            if attempts > budget:
                raise CollectiveIntegrityError(op, attempts)
            if self.retry is not None:
                self.retry.wait(attempts)

    # -- collectives ----------------------------------------------------------

    def allreduce_scalar(self, values: list[float], op: str = "sum") -> float:
        """Allreduce of one scalar per rank; returns the reduced value."""
        self._check(values)
        self._collective("allreduce_scalar")
        self.stats.allreduce_calls += 1
        self.stats.allreduce_bytes += 8 * self.size

        def compute() -> np.ndarray:
            if op == "sum":
                return np.asarray([np.sum(np.asarray(values, dtype=np.float64))])
            if op == "max":
                return np.asarray([np.max(values)], dtype=np.float64)
            if op == "min":
                return np.asarray([np.min(values)], dtype=np.float64)
            raise ValueError(f"unknown op {op!r}")

        return float(self._collective_result("allreduce_scalar", compute)[0])

    def allreduce_array(self, arrays: list[np.ndarray], op: str = "sum") -> np.ndarray:
        """Elementwise allreduce of equally-shaped per-rank arrays."""
        self._check(arrays)
        self._collective("allreduce_array")
        self.stats.allreduce_calls += 1
        self.stats.allreduce_bytes += sum(a.nbytes for a in arrays)

        def compute() -> np.ndarray:
            stack = np.stack(arrays)
            if op == "sum":
                return stack.sum(axis=0)
            if op == "max":
                return stack.max(axis=0)
            if op == "min":
                return stack.min(axis=0)
            raise ValueError(f"unknown op {op!r}")

        return self._collective_result("allreduce_array", compute)

    def exchange(
        self, sends: dict[tuple[int, int], np.ndarray]
    ) -> dict[tuple[int, int], np.ndarray]:
        """Point-to-point exchange.

        ``sends[(src, dst)]`` is the buffer rank ``src`` sends to ``dst``;
        the return maps the same keys to the delivered buffers (copies).
        With a fault injector attached, the delivered buffer may be
        zeroed (drop), bit-flipped (corruption) or replaced by the
        previous buffer sent on that edge (delayed delivery).

        With a :class:`~repro.comm.reliable.RetryPolicy` attached
        (``retry=``), every buffer is validated against its envelope
        checksum and retransmitted on mismatch -- see :meth:`_deliver` --
        so the faults above are survived instead of silently absorbed.
        """
        out = {}
        for (src, dst), buf in sends.items():
            if not (0 <= src < self.size and 0 <= dst < self.size):
                raise ValueError(f"invalid ranks in send ({src}->{dst})")
            if src != dst:
                self.stats.record_p2p(buf.nbytes)
            if self.retry is not None:
                delivered = self._deliver(src, dst, buf)
            elif self.fault_injector is not None:
                delivered = self.fault_injector.deliver(src, dst, buf)
            else:
                delivered = buf
            out[(src, dst)] = np.array(delivered, copy=True)
        return out

    def _deliver(self, src: int, dst: int, buf: np.ndarray) -> np.ndarray:
        """Reliable delivery of one buffer: checksum, dedupe, retransmit.

        The logical message was already counted by the caller; every
        *extra* wire attempt increments ``stats.retransmissions`` and a
        delivery recognized as a stale earlier sequence number increments
        ``stats.duplicates`` (and is discarded -- idempotence).  Exhausting
        ``retry.max_retries`` retransmissions raises
        :class:`CommTimeoutError`.
        """
        edge = (src, dst)
        seq = self._seq.get(edge, 0)
        self._seq[edge] = seq + 1
        crc = payload_checksum(buf)
        prev_crc = self._edge_crc.get(edge)
        self._edge_crc[edge] = crc
        attempts = 0
        while True:
            attempts += 1
            delivered = buf
            if self.fault_injector is not None:
                delivered = self.fault_injector.deliver(src, dst, buf)
            got = payload_checksum(delivered)
            if got == crc:
                return delivered
            if prev_crc is not None and got == prev_crc:
                # Stale delivery of the previous sequence number: a
                # duplicate, not new data -- drop it and retransmit.
                self.stats.duplicates += 1
            if attempts > self.retry.max_retries:
                self.stats.timeouts += 1
                raise CommTimeoutError(src, dst, attempts, "checksum never validated")
            self.stats.retransmissions += 1
            self.retry.wait(attempts)

    def exchange_batched(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        phase: str = "gs.exchange",
    ) -> CommRound:
        """Account one exchange round given per-message edge arrays.

        The round's payloads are computed by the caller (the batched
        gather--scatter reduces with ``bincount``, not by moving buffers),
        so this is traffic accounting for the cost model: validation,
        :meth:`TrafficStats.record_p2p_batch`, and the wire messages
        returned as one :class:`CommRound`.

        Count-only rounds cannot pass through the fault injector or the
        reliable channel (there is no per-message buffer to drop or
        checksum), so a hardened/faulted world refuses them -- faulted
        traffic must use :meth:`exchange`.
        """
        if self.fault_injector is not None or self.retry is not None:
            raise RuntimeError(
                "exchange_batched bypasses the fault/reliable channel; "
                "faulted or hardened worlds must use exchange()"
            )
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if not (src.shape == dst.shape == nbytes.shape):
            raise ValueError("src, dst and nbytes must be parallel arrays")
        if src.size and not (
            (src >= 0).all()
            and (src < self.size).all()
            and (dst >= 0).all()
            and (dst < self.size).all()
        ):
            raise ValueError("invalid ranks in batched exchange round")
        # Self-messages are rank-local copies: free on the wire and uncounted,
        # matching the per-message exchange() accounting.
        wire = src != dst
        if not wire.all():
            src, dst, nbytes = src[wire], dst[wire], nbytes[wire]
        self.stats.record_p2p_batch(nbytes)
        return CommRound(phase, src, dst, nbytes)

    def barrier(self) -> None:
        self._collective("barrier")
        self.stats.barrier_calls += 1

    def gather(self, values: list, root: int = 0) -> list:
        """Gather per-rank values at rank ``root``.

        The whole world lives in one process, so the full list is the
        root's receive buffer and is returned directly (callers acting as
        non-root ranks should ignore it, as with MPI's ``Gather``).
        ``root`` determines the traffic accounting: every rank except the
        root sends it one message, counted in both messages and bytes.
        """
        self._check(values)
        if not 0 <= root < self.size:
            raise ValueError(f"invalid root rank {root}")
        self._collective("gather")
        for rank, value in enumerate(values):
            if rank == root:
                continue
            try:
                nbytes = int(np.asarray(value).nbytes)
            except (TypeError, ValueError):
                nbytes = 0  # non-numeric payloads count as messages only
            self.stats.record_p2p(nbytes)
        return list(values)
