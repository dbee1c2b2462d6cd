"""Graceful in-situ degradation: deadlock-free drain, quarantine, error at close."""

import threading

import numpy as np
import pytest

from repro.insitu import InSituPipeline, Processor
from repro.insitu.pipeline import QUARANTINE_AFTER


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


class TestDeadlockFix:
    def test_producer_released_after_processor_error(self):
        """A failing processor must not leave the producer blocked on a
        full queue: the worker keeps draining and counts the items."""
        boom = AlwaysFails()
        pipe = InSituPipeline([boom], max_queue=1).open()

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
        assert pipe.stats.processor_failures["boom"] == QUARANTINE_AFTER

    def test_close_finalizes_healthy_before_reraising(self):
        boom = AlwaysFails()
        good = Collector()
        pipe = InSituPipeline([boom, good]).open()
        pipe.put("x", np.ones(2))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        assert good.finalized
        assert good.items  # the healthy processor still received the data


class TestQuarantine:
    def test_failing_processor_quarantined_healthy_keep_serving(self):
        boom = AlwaysFails()
        good = Collector()
        pipe = InSituPipeline([boom, good]).open()
        for i in range(6):
            pipe.put("x", np.full(2, float(i)))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        stats = pipe.stats
        # Quarantined after 3 consecutive failures; never called again.
        assert QUARANTINE_AFTER == 3
        assert boom.calls == 3
        assert stats.quarantined == ["boom"]
        assert stats.processor_failures["boom"] == 3
        # The healthy processor saw every snapshot.
        assert len(good.items) == 6
        assert good.finalized
        # Quarantined processors are not finalized (their state is suspect).
        assert not boom.finalized

    def test_close_reraises_after_quarantine(self):
        boom = AlwaysFails()
        pipe = InSituPipeline([boom]).open()
        for _ in range(QUARANTINE_AFTER):
            pipe.put("x", np.zeros(1))
        with pytest.raises(RuntimeError, match="in-situ processor failed") as info:
            pipe.close()
        assert str(info.value.__cause__) == "bad"  # the first processor error
        assert pipe.stats.quarantined == ["boom"]

    def test_success_resets_consecutive_count(self):
        class FailsTwoOfThree(Processor):
            name = "intermittent"

            def __init__(self):
                self.calls = 0

            def process(self, tag, array, sim_time):
                self.calls += 1
                if self.calls % 3 != 0:
                    raise RuntimeError("intermittent")

        p = FailsTwoOfThree()
        pipe = InSituPipeline([p]).open()
        for _ in range(9):
            pipe.put("x", np.zeros(1))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        # Never three consecutive failures, so never quarantined.
        assert pipe.stats.quarantined == []
        assert p.calls == 9


class FailsFirst(Processor):
    name = "flaky"

    def __init__(self):
        self.calls = 0
        self.processed = 0

    def process(self, tag, array, sim_time):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("transient")
        self.processed += 1


class TestNoRetry:
    def test_failed_snapshot_is_not_retried(self):
        flaky = FailsFirst()
        pipe = InSituPipeline([flaky]).open()
        pipe.put("x", np.ones(3))
        pipe.put("x", np.ones(3))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        # One call per snapshot: the failed one is dropped, not retried.
        assert flaky.calls == 2
        assert flaky.processed == 1
        assert pipe.stats.dropped == 1
        assert pipe.stats.quarantined == []


class TestStatsAccounting:
    def test_partial_failure_counts_item_dropped(self):
        boom = AlwaysFails()
        good = Collector()
        pipe = InSituPipeline([boom, good]).open()
        pipe.put("x", np.zeros(1))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        assert pipe.stats.dropped == 1  # not fully processed
        assert len(good.items) == 1

    def test_all_quarantined_items_count_dropped(self):
        pipe = InSituPipeline([AlwaysFails()]).open()
        for _ in range(5):
            pipe.put("x", np.zeros(1))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        # 3 failures then quarantine; the rest have no active consumer.
        assert pipe.stats.dropped == 5

    def test_summary_mentions_quarantine(self):
        pipe = InSituPipeline([AlwaysFails()]).open()
        for _ in range(QUARANTINE_AFTER):
            pipe.put("x", np.zeros(1))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()
        assert "quarantined: boom" in pipe.stats.summary()
        assert "3 failures" in pipe.stats.summary()
