"""The streaming pipeline: an in-process stand-in for ADIOS2 engines.

Design goals copied from the paper's workflow:

* the producer (the solver loop) must not stall unless the consumer is
  genuinely saturated (bounded queue = backpressure, counted);
* consumers run asynchronously on a worker thread ("the data can easily be
  streamed to a data processing routine, running on the mostly unused
  CPUs");
* everything is measured: queue waits, items, bytes, per-processor time --
  the numbers behind the "low impact on the simulation performance" claim.

Degradation is graceful, because at scale a post-processing routine *will*
eventually throw and the solver must not care: a failing processor is
retried with (injectable-clock) backoff, quarantined after repeated
failures while the healthy processors keep receiving data, and the worker
always keeps draining the queue -- a processor error can never leave the
producer blocked on a full queue.  Errors are reported at :meth:`close`
(``strict=True``, the default) or just recorded in the stats
(``strict=False``, the mode a resilient driver uses).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Processor", "InSituPipeline", "PipelineStats"]


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
    retries: int = 0
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
    """Bounded-queue producer/consumer pipeline for field snapshots.

    Parameters
    ----------
    processors:
        Consumers invoked, in order, for every snapshot.
    max_queue:
        Queue bound; a full queue blocks the producer (``drop_on_full``
        instead discards, emulating a best-effort engine).
    retries:
        Extra attempts per processor per snapshot after a failure.
    backoff, backoff_base, sleep:
        Retry ``n`` waits ``backoff * backoff_base**n`` seconds before
        re-attempting, via the injectable ``sleep`` callable (tests pass a
        recorder; the default ``backoff=0`` never sleeps).
    quarantine_after:
        Consecutive failed *snapshots* (retries exhausted) after which a
        processor is quarantined: it stops receiving data and its
        ``finalize`` is skipped, while the healthy processors keep
        running.
    strict:
        If True (default), :meth:`close` re-raises the first processor
        error -- after finalizing the healthy processors.  If False,
        errors are only recorded in the stats, the graceful-degradation
        mode for production drivers.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`.
        The producer side keeps an ``insitu.queue_depth`` gauge current on
        every :meth:`put`, and :meth:`close` publishes the lifetime totals
        (items, bytes, per-processor latency, quarantines) via
        :func:`~repro.observability.bridge.publish_pipeline_stats`.
    """

    def __init__(
        self,
        processors: list[Processor],
        max_queue: int = 8,
        drop_on_full: bool = False,
        retries: int = 0,
        backoff: float = 0.0,
        backoff_base: float = 2.0,
        sleep=time.sleep,
        quarantine_after: int = 3,
        strict: bool = True,
        metrics=None,
    ) -> None:
        self.processors = processors
        self.queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self.drop_on_full = drop_on_full
        self.retries = retries
        self.backoff = backoff
        self.backoff_base = backoff_base
        self.sleep = sleep
        self.quarantine_after = quarantine_after
        self.strict = strict
        self.metrics = metrics
        self.stats = PipelineStats()
        self._worker: threading.Thread | None = None
        self._closed = False
        self._error: BaseException | None = None
        self._consecutive_failures: dict[str, int] = {}
        self._quarantined: set[str] = set()

    # -- lifecycle ------------------------------------------------------------

    def open(self) -> "InSituPipeline":
        """Start the worker thread.  Usable as a context manager."""
        if self._worker is not None:
            raise RuntimeError("pipeline already open")
        self._closed = False
        self._worker = threading.Thread(target=self._drain, daemon=True, name="insitu")
        self._worker.start()
        return self

    def close(self) -> PipelineStats:
        """Flush outstanding items, stop the worker, finalize processors.

        Healthy (non-quarantined) processors are always finalized, even
        when a processor error is about to be re-raised (``strict``).
        """
        if self._worker is None:
            raise RuntimeError("pipeline not open")
        self.queue.put(None)  # sentinel
        self._worker.join()
        self._worker = None
        self._closed = True
        finalize_error: BaseException | None = None
        for p in self.processors:
            if p.name in self._quarantined:
                continue
            try:
                p.finalize()
            except BaseException as exc:
                if finalize_error is None:
                    finalize_error = exc
        if self.metrics is not None:
            from repro.observability.bridge import publish_pipeline_stats

            publish_pipeline_stats(self.stats, self.metrics)
        if self._error is not None and self.strict:
            raise RuntimeError("in-situ processor failed") from self._error
        if finalize_error is not None and self.strict:
            raise finalize_error
        return self.stats

    def __enter__(self) -> "InSituPipeline":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def quarantined(self) -> frozenset[str]:
        """Names of processors currently quarantined."""
        return frozenset(self._quarantined)

    @property
    def error(self) -> BaseException | None:
        """The first processor error seen (also kept in non-strict mode)."""
        return self._error

    # -- producer side -----------------------------------------------------------

    def put(self, tag: str, array: np.ndarray, sim_time: float = 0.0) -> bool:
        """Enqueue one snapshot (copied).  Returns False if dropped."""
        if self._worker is None or self._closed:
            raise RuntimeError("pipeline not open")
        item = (tag, array.copy(), sim_time)
        t0 = time.perf_counter()
        if self.drop_on_full:
            try:
                self.queue.put_nowait(item)
            except queue.Full:
                self.stats.dropped += 1
                return False
        else:
            self.queue.put(item)
        self.stats.producer_wait += time.perf_counter() - t0
        self.stats.items += 1
        self.stats.bytes_in += array.nbytes
        if self.metrics is not None:
            # qsize is advisory (the worker drains concurrently) but is
            # exactly the backpressure signal production dashboards watch.
            self.metrics.gauge("insitu.queue_depth").set(self.queue.qsize())
        return True

    # -- consumer side ----------------------------------------------------------

    def _drain(self) -> None:
        """Worker loop.

        Never exits before the sentinel: a processor failure must not stop
        consumption, or a producer blocked on the bounded queue would hang
        forever.  Items a processor could not handle count as dropped.
        """
        while True:
            item = self.queue.get()
            if item is None:
                return
            tag, array, sim_time = item
            active = 0
            failed = 0
            for p in self.processors:
                if p.name in self._quarantined:
                    continue
                active += 1
                if self._process_one(p, tag, array, sim_time):
                    self._consecutive_failures[p.name] = 0
                else:
                    failed += 1
                    streak = self._consecutive_failures.get(p.name, 0) + 1
                    self._consecutive_failures[p.name] = streak
                    if streak >= self.quarantine_after:
                        self._quarantined.add(p.name)
                        self.stats.quarantined.append(p.name)
            if active == 0 or failed:
                self.stats.dropped += 1

    def _process_one(self, p: Processor, tag, array, sim_time) -> bool:
        """One snapshot through one processor, with retry + backoff."""
        for attempt in range(self.retries + 1):
            t0 = time.perf_counter()
            try:
                p.process(tag, array, sim_time)
                return True
            except BaseException as exc:
                if self._error is None:
                    self._error = exc
                self.stats.processor_failures[p.name] = (
                    self.stats.processor_failures.get(p.name, 0) + 1
                )
                if attempt < self.retries:
                    self.stats.retries += 1
                    delay = self.backoff * self.backoff_base**attempt
                    if delay > 0:
                        self.sleep(delay)
            finally:
                dt = time.perf_counter() - t0
                self.stats.processor_time[p.name] = (
                    self.stats.processor_time.get(p.name, 0.0) + dt
                )
        return False
