"""The hardened communication layer: reliable p2p and verified collectives."""

import numpy as np
import pytest

from repro.comm import (
    CollectiveIntegrityError,
    CommTimeoutError,
    RetryPolicy,
    SimWorld,
    payload_checksum,
)
from repro.resilience import Fault, FaultInjector


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        p = RetryPolicy(max_retries=4, backoff=1.0, backoff_base=2.0)
        assert [p.delay(a) for a in (1, 2, 3)] == [1.0, 2.0, 4.0]

    def test_jitter_is_seeded(self):
        a = RetryPolicy(backoff=1.0, jitter=0.5, seed=3)
        b = RetryPolicy(backoff=1.0, jitter=0.5, seed=3)
        assert [a.delay(1) for _ in range(5)] == [b.delay(1) for _ in range(5)]

    def test_wait_uses_injected_sleep(self):
        slept = []
        p = RetryPolicy(backoff=0.5, sleep=slept.append)
        p.wait(1)
        p.wait(2)
        assert slept == [0.5, 1.0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestReliableExchange:
    def test_drop_is_retransmitted(self):
        inj = FaultInjector(schedule=[Fault("drop", at_call=0)])
        w = SimWorld(2, fault_injector=inj, retry=RetryPolicy())
        out = w.exchange({(0, 1): np.full(4, 5.0)})
        # The dropped first attempt is retried and the payload arrives intact.
        assert np.allclose(out[(0, 1)], 5.0)
        assert w.stats.retransmissions == 1
        assert w.stats.p2p_messages == 1  # logical message counted once

    def test_corruption_is_retransmitted(self):
        inj = FaultInjector(seed=2, schedule=[Fault("corrupt", at_call=0)])
        w = SimWorld(2, fault_injector=inj, retry=RetryPolicy())
        sent = np.arange(6, dtype=np.float64)
        out = w.exchange({(0, 1): sent})
        assert np.array_equal(out[(0, 1)], sent)
        assert w.stats.retransmissions == 1

    def test_stale_delivery_counts_as_duplicate(self):
        inj = FaultInjector(schedule=[Fault("delay", at_call=1)])
        w = SimWorld(2, fault_injector=inj, retry=RetryPolicy())
        w.exchange({(0, 1): np.full(3, 1.0)})
        out = w.exchange({(0, 1): np.full(3, 2.0)})
        # The stale (previous-sequence) payload is recognized, discarded
        # and the current payload retransmitted.
        assert np.allclose(out[(0, 1)], 2.0)
        assert w.stats.duplicates == 1
        assert w.stats.retransmissions == 1

    def test_persistent_drop_raises_timeout_not_hang(self):
        faults = [Fault("drop", at_call=i) for i in range(10)]
        inj = FaultInjector(schedule=faults)
        w = SimWorld(2, fault_injector=inj, retry=RetryPolicy(max_retries=3))
        with pytest.raises(CommTimeoutError) as exc_info:
            w.exchange({(0, 1): np.ones(4)})
        assert exc_info.value.src == 0 and exc_info.value.dst == 1
        assert w.stats.timeouts == 1
        assert w.stats.retransmissions == 3

    def test_clean_channel_identical_to_unhardened(self):
        sends = {(0, 1): np.arange(5.0), (1, 0): np.full(3, 2.0)}
        plain = SimWorld(2).exchange({k: v.copy() for k, v in sends.items()})
        hard = SimWorld(2, retry=RetryPolicy()).exchange(
            {k: v.copy() for k, v in sends.items()}
        )
        for key in sends:
            assert np.array_equal(plain[key], hard[key])

    def test_checksum_is_content_addressed(self):
        a = np.arange(8.0)
        assert payload_checksum(a) == payload_checksum(a.copy())
        assert payload_checksum(a) != payload_checksum(a + 1.0)


class TestVerifiedCollectives:
    def test_single_sdc_is_absorbed_by_recompute(self):
        inj = FaultInjector(
            seed=1, schedule=[Fault("collective_sdc", at_call=0, op="allreduce")]
        )
        w = SimWorld(
            2, fault_injector=inj, retry=RetryPolicy(), verify_collectives=True
        )
        assert w.allreduce_scalar([1.0, 2.0]) == 3.0
        assert w.stats.integrity_failures == 1

    def test_persistent_sdc_raises_integrity_error(self):
        # Corrupt one replica of every attempt: result calls 0, 2, 4, ...
        faults = [
            Fault("collective_sdc", at_call=2 * i, op="allreduce") for i in range(8)
        ]
        inj = FaultInjector(seed=1, schedule=faults)
        w = SimWorld(
            2,
            fault_injector=inj,
            retry=RetryPolicy(max_retries=2),
            verify_collectives=True,
        )
        with pytest.raises(CollectiveIntegrityError):
            w.allreduce_scalar([1.0, 2.0])
        assert w.stats.integrity_failures >= 3

    def test_array_allreduce_verified_too(self):
        inj = FaultInjector(
            seed=5, schedule=[Fault("collective_sdc", at_call=0, op="allreduce")]
        )
        w = SimWorld(
            2, fault_injector=inj, retry=RetryPolicy(), verify_collectives=True
        )
        out = w.allreduce_array([np.ones(4), np.full(4, 2.0)])
        assert np.allclose(out, 3.0)
        assert w.stats.integrity_failures == 1

    def test_verification_off_passes_sdc_through(self):
        # The control case: without verification the corrupted result is
        # silently accepted -- which is exactly why the check exists.
        inj = FaultInjector(
            seed=1, schedule=[Fault("collective_sdc", at_call=0, op="allreduce")]
        )
        w = SimWorld(2, fault_injector=inj)
        assert w.allreduce_scalar([1.0, 2.0]) != 3.0


class TestStatsAbsorb:
    def test_absorb_folds_world_counters(self):
        a = SimWorld(2)
        a.exchange({(0, 1): np.ones(4)})
        a.allreduce_scalar([1.0, 2.0])
        b = SimWorld(2)
        b.exchange({(1, 0): np.ones(2)})
        b.stats.absorb(a.stats)
        assert b.stats.p2p_messages == 2
        assert b.stats.allreduce_calls == 1
        assert b.stats.p2p_bytes == 6 * 8
