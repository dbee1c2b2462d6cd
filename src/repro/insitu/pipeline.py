"""The streaming pipeline: an in-process stand-in for ADIOS2 engines.

Design goals copied from the paper's workflow:

* the producer (the solver loop) must not stall unless the consumer is
  genuinely saturated (at most ``max_queue`` snapshots in flight =
  backpressure, counted);
* consumers run asynchronously on a worker thread ("the data can easily be
  streamed to a data processing routine, running on the mostly unused
  CPUs") -- the same :class:`~repro.core.overlap.WorkerExecutor` the
  time step overlaps its tasks on;
* everything is measured: producer waits, items, bytes, per-processor time --
  the numbers behind the "low impact on the simulation performance" claim.

Degradation is graceful, because at scale a post-processing routine *will*
eventually throw and the solver must not care: a failing processor is
quarantined after :data:`QUARANTINE_AFTER` consecutive failed snapshots
while the healthy processors keep receiving data, and every snapshot task
runs to completion -- a processor error can never leave the producer
blocked behind a full queue.  :meth:`InSituPipeline.close` finalizes the
healthy processors and then re-raises the first processor error.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.core.overlap import WorkerExecutor

__all__ = ["Processor", "InSituPipeline", "PipelineStats", "QUARANTINE_AFTER"]

#: Consecutive failed snapshots after which a processor is quarantined: it
#: stops receiving data and its ``finalize`` is skipped.
QUARANTINE_AFTER = 3


class Processor:
    """Base class for in-situ consumers."""

    name = "processor"

    def process(self, tag: str, array: np.ndarray, sim_time: float) -> None:
        """Handle one snapshot (runs on the pipeline worker thread)."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Called once when the pipeline closes."""


@dataclass
class PipelineStats:
    """Counters for one pipeline lifetime."""

    items: int = 0
    bytes_in: int = 0
    producer_wait: float = 0.0
    processor_time: dict[str, float] = field(default_factory=dict)
    dropped: int = 0
    processor_failures: dict[str, int] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"items={self.items} bytes={self.bytes_in} "
            f"producer_wait={self.producer_wait:.4f}s dropped={self.dropped}"
        ]
        for k, v in sorted(self.processor_time.items()):
            fails = self.processor_failures.get(k, 0)
            suffix = f" ({fails} failures)" if fails else ""
            lines.append(f"  {k}: {v:.4f}s{suffix}")
        if self.quarantined:
            lines.append(f"  quarantined: {', '.join(self.quarantined)}")
        return "\n".join(lines)


class InSituPipeline:
    """Bounded producer/consumer pipeline for field snapshots.

    Parameters
    ----------
    processors:
        Consumers invoked, in order, for every snapshot.
    max_queue:
        Snapshots in flight at most; the producer waits for the oldest one
        before it hands over another.

    Everything the pipeline measures lands in :attr:`stats`, which
    :meth:`close` returns.
    """

    def __init__(self, processors: list[Processor], max_queue: int = 8) -> None:
        self.processors = processors
        self.max_queue = max_queue
        self.stats = PipelineStats()
        self._executor: WorkerExecutor | None = None
        self._pending: deque[Future[None]] = deque()
        self._error: Exception | None = None
        self._consecutive_failures: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------------

    def open(self) -> "InSituPipeline":
        """Start accepting snapshots.  Usable as a context manager."""
        if self._executor is not None:
            raise RuntimeError("pipeline already open")
        self._executor = WorkerExecutor()
        return self

    def close(self) -> PipelineStats:
        """Wait for every snapshot, stop the worker, finalize processors.

        Healthy (non-quarantined) processors are always finalized, even
        when a processor error is about to be re-raised.
        """
        if self._executor is None:
            raise RuntimeError("pipeline not open")
        while self._pending:
            self._pending.popleft().result()
        self._executor.shutdown()
        self._executor = None
        finalize_error: Exception | None = None
        for p in self.processors:
            if p.name in self.stats.quarantined:
                continue
            try:
                p.finalize()
            except Exception as exc:
                if finalize_error is None:
                    finalize_error = exc
        if self._error is not None:
            raise RuntimeError("in-situ processor failed") from self._error
        if finalize_error is not None:
            raise finalize_error
        return self.stats

    def __enter__(self) -> "InSituPipeline":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- producer side -----------------------------------------------------------

    def put(self, tag: str, array: np.ndarray, sim_time: float = 0.0) -> None:
        """Hand over one snapshot (copied); waits while ``max_queue`` are in flight."""
        if self._executor is None:
            raise RuntimeError("pipeline not open")
        snapshot = array.copy()
        t0 = time.perf_counter()
        while len(self._pending) >= self.max_queue:
            self._pending.popleft().result()
        self.stats.producer_wait += time.perf_counter() - t0
        self._pending.append(self._executor.submit(self._process, tag, snapshot, sim_time))
        self.stats.items += 1
        self.stats.bytes_in += array.nbytes

    # -- consumer side ----------------------------------------------------------

    def _process(self, tag: str, array: np.ndarray, sim_time: float) -> None:
        """One snapshot through every healthy processor (on the worker).

        Never raises: a processor error is recorded, so the snapshot's
        future always completes.  A snapshot some processor could not
        handle, or that no processor was left to handle, counts as dropped.
        """
        stats = self.stats
        active = failed = 0
        for p in self.processors:
            if p.name in stats.quarantined:
                continue
            active += 1
            t0 = time.perf_counter()
            try:
                p.process(tag, array, sim_time)
                self._consecutive_failures[p.name] = 0
            except Exception as exc:
                if self._error is None:
                    self._error = exc
                failed += 1
                stats.processor_failures[p.name] = stats.processor_failures.get(p.name, 0) + 1
                streak = self._consecutive_failures.get(p.name, 0) + 1
                self._consecutive_failures[p.name] = streak
                if streak >= QUARANTINE_AFTER:
                    stats.quarantined.append(p.name)
            finally:
                stats.processor_time[p.name] = (
                    stats.processor_time.get(p.name, 0.0) + time.perf_counter() - t0
                )
        if active == 0 or failed:
            stats.dropped += 1
