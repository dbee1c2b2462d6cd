"""Reliable-delivery policy for the simulated network.

The paper's campaign runs for weeks across thousands of GPUs; at that
scale the network is not a reliable channel but a lossy one, and every
production MPI stack layers acknowledgement/retransmission underneath the
collectives.  This module is the simulated equivalent for
:class:`~repro.comm.simworld.SimWorld`:

* every point-to-point buffer travels in an **envelope** carrying a
  per-edge **sequence number** and a CRC32 **payload checksum**, so the
  receiver can tell a genuine delivery from a dropped (zeroed), corrupted
  (bit-flipped) or stale (delayed) one;
* failed deliveries are **retransmitted** under a :class:`RetryPolicy`,
  up to a bounded attempt budget -- exhaustion raises
  :class:`CommTimeoutError` instead of hanging, the property the chaos
  campaign asserts;
* retried deliveries are **idempotent for the traffic statistics**: the
  sequence number dedupes them, so ``TrafficStats.p2p_messages`` counts
  logical messages once while ``retransmissions`` counts the extra wire
  traffic separately;
* collective results can be **integrity-checked** by replication: the
  reduction is computed twice and the replicas' checksums compared, which
  catches silent data corruption (SDC) planted in a collective result and
  escalates to :class:`CollectiveIntegrityError` after bounded retries --
  the rollback trigger.

The simulated world has no clock, so a retry is immediate: there is no
backoff for a sleep to spend, and hardened runs stay bit-for-bit
reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CommTimeoutError",
    "CollectiveIntegrityError",
    "RetryPolicy",
    "payload_checksum",
]


class CommTimeoutError(RuntimeError):
    """A message could not be delivered within the retry budget."""

    def __init__(self, src: int, dst: int, attempts: int, detail: str = "") -> None:
        self.src = src
        self.dst = dst
        self.attempts = attempts
        msg = f"message {src}->{dst} undeliverable after {attempts} attempts"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class CollectiveIntegrityError(RuntimeError):
    """Replicated collective results disagreed beyond the retry budget.

    Signals silent data corruption inside a reduction; the caller (the
    :class:`~repro.resilience.runner.ResilientRunner`) must roll back to
    the last consistent epoch rather than trust either replica.
    """

    def __init__(self, op: str, attempts: int) -> None:
        self.op = op
        self.attempts = attempts
        super().__init__(
            f"collective {op!r} failed replicated integrity check {attempts} times"
        )


def payload_checksum(buf: np.ndarray) -> int:
    """CRC32 over the raw payload bytes (dtype- and shape-blind by design).

    The checksum guards the wire representation: a dropped message
    (delivered as zeros), a flipped bit or a stale buffer all change the
    byte stream and therefore the CRC, which is all the receiver needs.
    """
    return zlib.crc32(np.ascontiguousarray(buf).tobytes())


@dataclass
class RetryPolicy:
    """Bounded retransmission budget.

    Parameters
    ----------
    max_retries:
        Retransmissions allowed per message (so up to ``max_retries + 1``
        delivery attempts) and re-runs allowed per integrity-checked
        collective.
    """

    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
