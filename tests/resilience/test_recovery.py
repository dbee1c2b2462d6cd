"""Warm-replacement recovery: the ResilientRunner over the distributed workload."""

import numpy as np
import pytest

from repro.comm import CollectiveIntegrityError, RetryPolicy
from repro.resilience import (
    Fault,
    FaultInjector,
    ResilientRunner,
    RetryBudgetExceededError,
)
from repro.resilience.distributed import DistributedThermalWorkload

N_STEPS = 6


@pytest.fixture(scope="module")
def fault_free():
    w = DistributedThermalWorkload(nranks=4, seed=3)
    w.run(N_STEPS)
    return w


def faulted_run(schedule, nranks=4, max_retries=3, **kwargs):
    """A faulted workload under the runner, checkpointing every 2 steps."""
    injector = FaultInjector(seed=5, schedule=list(schedule))
    w = DistributedThermalWorkload(
        nranks=nranks, seed=3, fault_injector=injector, **kwargs
    )
    runner = ResilientRunner(w, checkpoint_interval=2, max_retries=max_retries)
    return w, runner


class TestWarmReplace:
    def test_kill_rank_mid_cg_matches_fault_free_nu(self, fault_free):
        # The rank dies inside the CG's allreduce stream -- mid-solve, the
        # acceptance scenario.  Recovery must reproduce the fault-free
        # Nusselt proxy within tolerance.
        w, runner = faulted_run(
            [Fault("rank_failure", rank=2, at_call=40, op="allreduce")]
        )
        result = runner.run(n_steps=N_STEPS)
        assert w.step_count == N_STEPS
        assert result.retries == 1
        assert w.world.size == 4
        assert w.history[-1][1] == pytest.approx(fault_free.history[-1][1], abs=1e-10)
        (detected,) = result.events.of_kind("fault_detected")
        assert detected.data["cause"] == "RankFailedError"
        assert detected.data["rank"] == 2

    def test_nu_history_consistent_after_rollback(self, fault_free):
        w, runner = faulted_run(
            [Fault("rank_failure", rank=1, at_call=200, op="allreduce")]
        )
        result = runner.run(n_steps=N_STEPS)
        assert result.retries == 1
        # Replayed steps overwrite their rolled-back entries: the final
        # history has exactly one entry per step, matching fault-free.
        assert [s for s, _ in w.history] == [s for s, _ in fault_free.history]
        assert result.results == w.history
        for (_, nu), (_, ref) in zip(w.history, fault_free.history):
            assert nu == pytest.approx(ref, abs=1e-10)


class TestDefaultRunner:
    def test_default_health_check_runs_the_workload(self, fault_free):
        # The workload's (step, nu) history carries no CFL: the default
        # HealthCheck scans its shards and skips the CFL ceiling.
        w = DistributedThermalWorkload(nranks=4, seed=3)
        result = ResilientRunner(w, checkpoint_interval=2).run(n_steps=N_STEPS)
        assert result.retries == 0
        assert w.history == fault_free.history


class TestFieldFault:
    def test_sdc_in_a_rank_shard_rolls_back(self):
        # The scheduled SDC corrupts rank 0's temperature shard; the health
        # check sees the NaN before the epoch is committed and the replayed
        # step reproduces the fault-free run.
        reference = DistributedThermalWorkload()
        reference.run(2)
        injector = FaultInjector(seed=1, schedule=[Fault("sdc", at_step=1, mode="nan")])
        w = DistributedThermalWorkload()
        result = ResilientRunner(w, checkpoint_interval=1, fault_injector=injector).run(
            n_steps=2
        )
        assert result.retries == 1
        (fault,) = result.events.of_kind("fault")
        assert fault.data["target"] == "temperature"
        assert w.history[-1][1] == reference.history[-1][1]


class TestTimeStep:
    def test_step_follows_a_changed_dt(self):
        # h2 = 1/dt and the Jacobi diagonal follow dt at the next step.
        w = DistributedThermalWorkload(nranks=2, seed=3)
        w.dt = 0.025
        w.run(1)
        ref = DistributedThermalWorkload(nranks=2, seed=3, dt=0.025)
        ref.run(1)
        assert w.history == ref.history
        assert np.array_equal(w.temperature, ref.temperature)

    def test_divergence_retry_steps_at_the_reduced_dt(self):
        # A diverged segment rolls back and replays at dt * dt_factor with
        # the operator of the new dt; the epoch restores the old dt first.
        w = DistributedThermalWorkload(nranks=2, seed=3)
        advance = w.advance
        failures = iter([True])

        def diverge_once():
            if next(failures, False):
                raise FloatingPointError("diverged")
            advance()

        w.advance = diverge_once
        result = ResilientRunner(w, checkpoint_interval=1).run(n_steps=1)
        assert result.retries == 1
        assert w.dt == 0.025
        ref = DistributedThermalWorkload(nranks=2, seed=3, dt=0.025)
        ref.run(1)
        assert w.history == ref.history


class TestRestoreShards:
    def test_epoch_of_another_world_size_is_rejected(self):
        # Shards come from disk: an epoch written by 3 ranks cannot be
        # installed shard-for-rank on a world of 4.
        _, runner = faulted_run([], nranks=3)
        runner.run(n_steps=2)
        _, shards, _ = runner.store.restore_latest()
        w = DistributedThermalWorkload(nranks=4, seed=3)
        with pytest.raises(ValueError, match="3 shards for a world of 4"):
            w.restore_shards(shards)
        assert w.step_count == 0


class TestEscalation:
    def test_checkpoint_barrier_death_restores_previous_epoch(self, fault_free):
        # A rank dying in the commit barrier after step 2 fails the
        # checkpoint before anything is staged: the previous epoch (0)
        # restores and both steps replay.
        w, runner = faulted_run([Fault("rank_failure", rank=1, at_call=1, op="barrier")])
        result = runner.run(n_steps=N_STEPS)
        assert result.retries == 1
        assert w.history[-1][1] == pytest.approx(fault_free.history[-1][1], abs=1e-10)
        (detected,) = result.events.of_kind("fault_detected")
        assert detected.step == 2
        (rollback,) = result.events.of_kind("rollback")
        assert rollback.step == 0
        assert rollback.data["steps_replayed"] == 2
        assert runner.store.aborted == []  # nothing was staged

    def test_collective_integrity_error_triggers_rollback(self, fault_free):
        # Corrupt one replica of both attempts of the same allreduce so
        # the verify-recompute budget exhausts and the runner rolls back.
        w, runner = faulted_run(
            [
                Fault("collective_sdc", at_call=30, op="allreduce"),
                Fault("collective_sdc", at_call=32, op="allreduce"),
            ],
            verify_collectives=True,
        )
        result = runner.run(n_steps=N_STEPS)
        assert result.retries == 1
        (detected,) = result.events.of_kind("fault_detected")
        assert detected.data["cause"] == "CollectiveIntegrityError"
        assert w.history[-1][1] == pytest.approx(fault_free.history[-1][1], abs=1e-10)

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
        schedule = [
            Fault("rank_failure", rank=0, at_call=i, op="allreduce")
            for i in range(0, 600, 3)
        ]
        _, runner = faulted_run(schedule, nranks=2, max_retries=2)
        with pytest.raises(RetryBudgetExceededError) as exc_info:
            runner.run(n_steps=N_STEPS)
        events = exc_info.value.events
        assert events.count("fault_detected") == 3  # the fatal third incident
        assert events.count("retry") == 2

    def test_comm_timeout_recovers_via_rollback(self, fault_free):
        # Drop the same logical message past the retry budget: the channel
        # raises CommTimeoutError (never hangs) and the runner rolls back.
        schedule = [Fault("drop", at_call=i) for i in range(40, 48)]
        w, runner = faulted_run(schedule, retry=RetryPolicy(max_retries=2))
        result = runner.run(n_steps=N_STEPS)
        assert w.step_count == N_STEPS
        assert w.traffic().timeouts >= 1
        causes = {e.data["cause"] for e in result.events.of_kind("fault_detected")}
        assert causes == {"CommTimeoutError"}
        assert w.history[-1][1] == pytest.approx(fault_free.history[-1][1], abs=1e-10)
