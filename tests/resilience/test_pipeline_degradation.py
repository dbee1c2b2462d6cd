"""Graceful in-situ degradation: deadlock-free drain, retry, quarantine."""

import threading

import numpy as np
import pytest

from repro.insitu import InSituPipeline, Processor


class Collector(Processor):
    name = "collect"

    def __init__(self):
        self.items = []
        self.finalized = False

    def process(self, tag, array, sim_time):
        self.items.append((tag, array.copy(), sim_time))

    def finalize(self):
        self.finalized = True


class AlwaysFails(Processor):
    name = "boom"

    def __init__(self):
        self.calls = 0
        self.finalized = False

    def process(self, tag, array, sim_time):
        self.calls += 1
        raise RuntimeError("bad")

    def finalize(self):
        self.finalized = True


class FailsFirstN(Processor):
    name = "flaky"

    def __init__(self, n):
        self.n = n
        self.calls = 0
        self.processed = 0

    def process(self, tag, array, sim_time):
        self.calls += 1
        if self.calls <= self.n:
            raise RuntimeError("transient")
        self.processed += 1


class TestDeadlockFix:
    def test_producer_released_after_processor_error(self):
        """A failing processor must not leave the producer blocked on a
        full queue: the worker keeps draining and counts the items."""
        boom = AlwaysFails()
        pipe = InSituPipeline([boom], max_queue=1, quarantine_after=100).open()

        def produce():
            for _ in range(20):
                pipe.put("x", np.zeros(4))

        t = threading.Thread(target=produce)
        t.start()
        t.join(timeout=10.0)
        assert not t.is_alive(), "producer deadlocked behind a failed processor"
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        assert pipe.stats.dropped == 20
        assert pipe.stats.processor_failures["boom"] == 20

    def test_close_finalizes_healthy_before_reraising(self):
        boom = AlwaysFails()
        good = Collector()
        pipe = InSituPipeline([boom, good], quarantine_after=100).open()
        pipe.put("x", np.ones(2))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        assert good.finalized
        assert good.items  # the healthy processor still received the data


class TestQuarantine:
    def test_failing_processor_quarantined_healthy_keep_serving(self):
        boom = AlwaysFails()
        good = Collector()
        pipe = InSituPipeline([boom, good], quarantine_after=2, strict=False).open()
        for i in range(6):
            pipe.put("x", np.full(2, float(i)))
        stats = pipe.close()
        # Quarantined after 2 consecutive failures; never called again.
        assert boom.calls == 2
        assert pipe.quarantined == {"boom"}
        assert stats.quarantined == ["boom"]
        assert stats.processor_failures["boom"] == 2
        # The healthy processor saw every snapshot.
        assert len(good.items) == 6
        assert good.finalized
        # Quarantined processors are not finalized (their state is suspect).
        assert not boom.finalized

    def test_non_strict_close_returns_stats(self):
        pipe = InSituPipeline([AlwaysFails()], quarantine_after=1, strict=False).open()
        pipe.put("x", np.zeros(1))
        stats = pipe.close()  # does not raise
        assert stats.quarantined == ["boom"]
        assert pipe.error is not None

    def test_success_resets_consecutive_count(self):
        class FailsEveryOther(Processor):
            name = "alternating"

            def __init__(self):
                self.calls = 0

            def process(self, tag, array, sim_time):
                self.calls += 1
                if self.calls % 2 == 1:
                    raise RuntimeError("odd call")

        p = FailsEveryOther()
        pipe = InSituPipeline([p], quarantine_after=2, strict=False).open()
        for _ in range(8):
            pipe.put("x", np.zeros(1))
        stats = pipe.close()
        # Never two consecutive failures, so never quarantined.
        assert stats.quarantined == []
        assert p.calls == 8


class TestRetryBackoff:
    def test_retry_recovers_transient_failure(self):
        flaky = FailsFirstN(1)
        pipe = InSituPipeline([flaky], retries=2, strict=False).open()
        pipe.put("x", np.ones(3))
        stats = pipe.close()
        assert flaky.processed == 1  # second attempt succeeded
        assert stats.retries == 1
        assert stats.dropped == 0
        assert stats.quarantined == []


class TestStatsAccounting:
    def test_partial_failure_counts_item_dropped(self):
        boom = AlwaysFails()
        good = Collector()
        pipe = InSituPipeline([boom, good], quarantine_after=100, strict=False).open()
        pipe.put("x", np.zeros(1))
        stats = pipe.close()
        assert stats.dropped == 1  # not fully processed
        assert len(good.items) == 1

    def test_all_quarantined_items_count_dropped(self):
        pipe = InSituPipeline([AlwaysFails()], quarantine_after=1, strict=False).open()
        for _ in range(5):
            pipe.put("x", np.zeros(1))
        stats = pipe.close()
        # 1 failure then quarantine; remaining items have no active consumer.
        assert stats.dropped == 5

    def test_summary_mentions_quarantine(self):
        pipe = InSituPipeline([AlwaysFails()], quarantine_after=1, strict=False).open()
        pipe.put("x", np.zeros(1))
        stats = pipe.close()
        assert "quarantined: boom" in stats.summary()
        assert "1 failures" in stats.summary()
