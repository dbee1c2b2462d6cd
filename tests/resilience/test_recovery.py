"""Warm-replacement recovery over the distributed thermal workload."""

import pytest

from repro.comm import CollectiveIntegrityError, RetryPolicy
from repro.resilience import Fault, FaultInjector
from repro.resilience.distributed import (
    DistributedThermalWorkload,
    RecoveryExhaustedError,
    ShardedCheckpointStore,
    WorldRecovery,
)

N_STEPS = 6


@pytest.fixture(scope="module")
def fault_free():
    return DistributedThermalWorkload(nranks=4, seed=3).run(N_STEPS)


def faulted_workload(schedule, nranks=4, **kwargs):
    store = ShardedCheckpointStore()
    recovery = WorldRecovery(store)
    injector = FaultInjector(seed=5, schedule=list(schedule))
    return DistributedThermalWorkload(
        nranks=nranks,
        seed=3,
        store=store,
        recovery=recovery,
        fault_injector=injector,
        **kwargs,
    )


class TestWarmReplace:
    def test_kill_rank_mid_cg_matches_fault_free_nu(self, fault_free):
        # The rank dies inside the CG's allreduce stream -- mid-solve, the
        # acceptance scenario.  Recovery must reproduce the fault-free
        # Nusselt proxy within tolerance.
        w = faulted_workload(
            [Fault("rank_failure", rank=2, at_call=40, op="allreduce")]
        )
        result = w.run(N_STEPS)
        assert result.steps == N_STEPS
        assert result.recoveries == 1
        assert w.world.size == 4
        assert result.nu_final == pytest.approx(fault_free.nu_final, abs=1e-10)
        incident = result.incidents[0]
        assert incident["cause"] == "RankFailedError"
        assert incident["failed_rank"] == 2

    def test_nu_history_consistent_after_rollback(self, fault_free):
        w = faulted_workload(
            [Fault("rank_failure", rank=1, at_call=200, op="allreduce")]
        )
        result = w.run(N_STEPS)
        # Replayed steps overwrite their rolled-back entries: the final
        # history has exactly one entry per step, matching fault-free.
        assert [s for s, _ in result.nu_history] == [s for s, _ in fault_free.nu_history]
        for (_, nu), (_, ref) in zip(result.nu_history, fault_free.nu_history):
            assert nu == pytest.approx(ref, abs=1e-10)


class TestRestoreShards:
    def test_epoch_of_another_world_size_is_rejected(self):
        # Shards come from disk: an epoch written by 3 ranks cannot be
        # installed shard-for-rank on a world of 4.
        small = DistributedThermalWorkload(nranks=3, seed=3)
        small.run(2)
        _, shards, _ = small.store.restore_latest()
        w = DistributedThermalWorkload(nranks=4, seed=3)
        with pytest.raises(ValueError, match="3 shards for a world of 4"):
            w.restore_shards(shards)
        assert w.step == 0


class TestEscalation:
    def test_checkpoint_barrier_death_aborts_staging(self, fault_free):
        # Dying inside the checkpoint's commit barrier must abort the
        # staged epoch: recovery falls back to the previous committed one.
        w = faulted_workload([Fault("rank_failure", rank=1, at_call=1, op="barrier")])
        result = w.run(N_STEPS)
        assert result.recoveries == 1
        assert result.nu_final == pytest.approx(fault_free.nu_final, abs=1e-10)
        assert w.store.aborted == []  # in-memory store: staging simply dropped

    def test_collective_integrity_error_triggers_rollback(self, fault_free):
        # Corrupt one replica of both attempts of the same allreduce so
        # the verify-recompute budget exhausts and recovery rolls back.
        w = faulted_workload(
            [
                Fault("collective_sdc", at_call=30, op="allreduce"),
                Fault("collective_sdc", at_call=32, op="allreduce"),
            ],
            verify_collectives=True,
        )
        result = w.run(N_STEPS)
        assert result.recoveries == 1
        assert result.incidents[0]["cause"] == "CollectiveIntegrityError"
        assert result.nu_final == pytest.approx(fault_free.nu_final, abs=1e-10)

    def test_without_recovery_failures_propagate(self):
        injector = FaultInjector(
            seed=5,
            schedule=[
                Fault("collective_sdc", at_call=0, op="allreduce"),
                Fault("collective_sdc", at_call=2, op="allreduce"),
            ],
        )
        w = DistributedThermalWorkload(
            nranks=2, seed=3, fault_injector=injector, verify_collectives=True
        )
        with pytest.raises(CollectiveIntegrityError):
            w.run(2)

    def test_recovery_budget_exhausts_cleanly(self):
        store = ShardedCheckpointStore()
        recovery = WorldRecovery(store, max_recoveries=2)
        schedule = [
            Fault("rank_failure", rank=0, at_call=i, op="allreduce")
            for i in range(0, 600, 3)
        ]
        injector = FaultInjector(seed=5, schedule=schedule)
        w = DistributedThermalWorkload(
            nranks=2, seed=3, store=store, recovery=recovery, fault_injector=injector
        )
        with pytest.raises(RecoveryExhaustedError):
            w.run(N_STEPS)
        assert recovery.recoveries == 3  # the fatal third incident

    def test_comm_timeout_recovers_via_rollback(self, fault_free):
        # Drop the same logical message past the retry budget: the channel
        # raises CommTimeoutError (never hangs) and recovery rolls back.
        store = ShardedCheckpointStore()
        recovery = WorldRecovery(store)
        schedule = [Fault("drop", at_call=i) for i in range(40, 48)]
        injector = FaultInjector(seed=5, schedule=schedule)
        w = DistributedThermalWorkload(
            nranks=4,
            seed=3,
            store=store,
            recovery=recovery,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=2),
        )
        result = w.run(N_STEPS)
        assert result.steps == N_STEPS
        assert result.stats.timeouts >= 1
        assert result.nu_final == pytest.approx(fault_free.nu_final, abs=1e-10)
