"""Warm-replacement recovery: the ResilientRunner over the partitioned Simulation."""

import numpy as np
import pytest

from repro.comm import CollectiveIntegrityError, RetryPolicy
from repro.core import Simulation, compute_nusselt, distribute, rbc_box_case
from repro.resilience import (
    Fault,
    FaultInjector,
    ResilientRunner,
    RetryBudgetExceededError,
)

N_STEPS = 6
DT = 0.02


def partitioned(nranks=4, dt=DT, **world):
    """The chaos campaign's box (Ra 1e4, 2x2x2 elements, lx 5) on ``nranks`` ranks."""
    sim = Simulation(rbc_box_case(1e4, n=(2, 2, 2), lx=5, dt=dt))
    distribute(sim, nranks, **world)
    return sim


def nusselt(sim):
    cfg = sim.config
    return compute_nusselt(
        sim.space, sim.velocity[2], sim.temperature, cfg.rayleigh, cfg.prandtl
    ).volume


@pytest.fixture(scope="module")
def fault_free():
    sim = partitioned()
    sim.run(n_steps=N_STEPS)
    return sim


def faulted_run(schedule, nranks=4, max_retries=3, **world):
    """A faulted partitioned run under the runner, checkpointing every 2 steps."""
    injector = FaultInjector(seed=5, schedule=list(schedule))
    sim = partitioned(nranks, fault_injector=injector, **world)
    runner = ResilientRunner(sim, checkpoint_interval=2, max_retries=max_retries)
    return sim, runner


class TestWarmReplace:
    def test_kill_rank_mid_cg_matches_fault_free_nu(self, fault_free):
        # The rank dies inside the pressure CG's allreduce stream --
        # mid-solve.  The warm replacement lands on the fault-free Nu bit
        # for bit: restore is exact and the reductions are rank-ordered.
        sim, runner = faulted_run(
            [Fault("rank_failure", rank=2, at_call=40, op="allreduce")]
        )
        first_world = sim.space.gs.world
        result = runner.run(n_steps=N_STEPS)
        assert sim.step_count == N_STEPS
        assert result.retries == 1
        assert sim.space.gs.world is not first_world
        assert sim.space.gs.world.size == 4
        assert nusselt(sim) == nusselt(fault_free)
        (detected,) = result.events.of_kind("fault_detected")
        assert detected.data["cause"] == "RankFailedError"
        assert detected.data["rank"] == 2

    def test_nu_history_consistent_after_rollback(self, fault_free):
        sim, runner = faulted_run(
            [Fault("rank_failure", rank=1, at_call=200, op="allreduce")]
        )
        result = runner.run(n_steps=N_STEPS)
        assert result.retries == 1
        # Replayed steps overwrite their rolled-back entries: the final
        # history has exactly one entry per step, equal to fault-free.
        assert result.results == sim.history
        assert sim.history == fault_free.history


class TestDefaultRunner:
    def test_default_health_check_runs_the_workload(self, fault_free):
        # The default HealthCheck scans every rank's shard and the CFL.
        sim = partitioned()
        result = ResilientRunner(sim, checkpoint_interval=2).run(n_steps=N_STEPS)
        assert result.retries == 0
        assert sim.history == fault_free.history


class TestFieldFault:
    def test_sdc_in_a_rank_shard_rolls_back(self):
        # The scheduled SDC plants a NaN in rank 2's t0 shard; the health
        # check sees it before the epoch is committed and the replayed
        # step reproduces the fault-free run.
        reference = partitioned()
        reference.run(n_steps=2)
        injector = FaultInjector(
            seed=1, schedule=[Fault("sdc", at_step=1, rank=2, target="t0", mode="nan")]
        )
        sim = partitioned()
        result = ResilientRunner(sim, checkpoint_interval=1, fault_injector=injector).run(
            n_steps=2
        )
        assert result.retries == 1
        (fault,) = result.events.of_kind("fault")
        assert fault.data["target"] == "t0"
        (detected,) = result.events.of_kind("fault_detected")
        assert "t0 of shard 2" in detected.detail
        assert nusselt(sim) == nusselt(reference)


class TestTimeStep:
    def test_step_follows_a_changed_dt(self):
        # A dt set between steps takes effect at the next step.
        sim = partitioned(2)
        sim.dt = DT / 2
        sim.run(n_steps=1)
        ref = partitioned(2, dt=DT / 2)
        ref.run(n_steps=1)
        assert sim.history == ref.history
        assert np.array_equal(sim.temperature, ref.temperature)

    def test_divergence_retry_steps_at_the_reduced_dt(self):
        # A diverged segment rolls back and replays at dt * dt_factor; the
        # epoch restores the old dt first.
        sim = partitioned(2)
        step = sim.step
        failures = iter([True])

        def diverge_once():
            if next(failures, False):
                raise FloatingPointError("diverged")
            return step()

        sim.step = diverge_once
        result = ResilientRunner(sim, checkpoint_interval=1).run(n_steps=1)
        assert result.retries == 1
        assert sim.dt == DT / 2
        ref = partitioned(2, dt=DT / 2)
        ref.run(n_steps=1)
        assert sim.history == ref.history


class TestRestoreShards:
    def test_one_shard_per_rank(self):
        # Rank r's shard holds its elements' chunk of every field and a
        # copy of every scalar; the chunks reassemble the state exactly.
        sim = partitioned(4)
        sim.run(n_steps=2)
        shards = sim.state_shards()
        assert len(shards) == 4
        dgs = sim.space.gs
        state = sim.state_arrays()
        for name, value in state.items():
            if np.shape(value) == sim.space.shape:
                assert [s[name].shape[0] for s in shards] == [
                    len(e) for e in dgs.rank_elements
                ]
                assert np.array_equal(dgs.gather_field([s[name] for s in shards]), value)
            else:
                assert all(np.array_equal(s[name], value) for s in shards)
        assert sum(len(e) for e in dgs.rank_elements) == sim.space.nelv

    def test_epoch_of_another_world_size_is_rejected(self):
        # Shards come from disk: an epoch written by 3 ranks cannot be
        # installed shard-for-rank on a world of 4, nor on a serial run.
        _, runner = faulted_run([], nranks=3)
        runner.run(n_steps=2)
        _, shards, _ = runner.store.restore_latest()
        sim = partitioned(4)
        world = sim.space.gs.world
        with pytest.raises(ValueError, match="3 shards for a world of 4"):
            sim.restore_shards(shards)
        assert sim.step_count == 0
        assert sim.space.gs.world is world
        serial = Simulation(rbc_box_case(1e4, n=(2, 2, 2), lx=5, dt=DT))
        with pytest.raises(ValueError, match="3 shards for a world of 1"):
            serial.restore_shards(shards)


class TestEscalation:
    def test_checkpoint_barrier_death_restores_previous_epoch(self, fault_free):
        # A rank dying in the commit barrier after step 2 fails the
        # checkpoint before anything is staged: the previous epoch (0)
        # restores and both steps replay.
        sim, runner = faulted_run([Fault("rank_failure", rank=1, at_call=1, op="barrier")])
        result = runner.run(n_steps=N_STEPS)
        assert result.retries == 1
        assert nusselt(sim) == nusselt(fault_free)
        (detected,) = result.events.of_kind("fault_detected")
        assert detected.step == 2
        (rollback,) = result.events.of_kind("rollback")
        assert rollback.step == 0
        assert rollback.data["steps_replayed"] == 2
        assert runner.store.aborted == []  # nothing was staged

    def test_collective_integrity_error_triggers_rollback(self, fault_free):
        # Corrupt one replica of both attempts of the same allreduce so
        # the verify-recompute budget exhausts and the runner rolls back.
        sim, runner = faulted_run(
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
        assert nusselt(sim) == nusselt(fault_free)

    def test_without_recovery_failures_propagate(self):
        injector = FaultInjector(
            seed=5,
            schedule=[
                Fault("collective_sdc", at_call=0, op="allreduce"),
                Fault("collective_sdc", at_call=2, op="allreduce"),
            ],
        )
        sim = partitioned(2, fault_injector=injector, verify_collectives=True)
        with pytest.raises(CollectiveIntegrityError):
            sim.run(n_steps=2)

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
        sim, runner = faulted_run(schedule, retry=RetryPolicy(max_retries=2))
        result = runner.run(n_steps=N_STEPS)
        assert sim.step_count == N_STEPS
        assert sim.space.gs.world.stats.timeouts >= 1
        causes = {e.data["cause"] for e in result.events.of_kind("fault_detected")}
        assert causes == {"CommTimeoutError"}
        assert nusselt(sim) == nusselt(fault_free)
