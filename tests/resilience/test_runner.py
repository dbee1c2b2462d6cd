"""Rollback-and-retry runner: unit tests on a stand-in simulation plus the
end-to-end acceptance scenarios (seeded fault recovery, kill-and-restart)."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Simulation, rbc_box_case
from repro.insitu import InSituPipeline, Processor
from repro.resilience import (
    Fault,
    FaultInjector,
    HealthCheck,
    RankFailedError,
    ResilientRunner,
    RetryBudgetExceededError,
)
from repro.resilience.distributed import ShardedCheckpointStore

# -- a minimal duck-typed simulation ------------------------------------------


class FakeSim:
    """Tiny checkpointable stand-in exposing the runner's interface.

    ``fail_if(sim)`` is consulted every step; returning an exception class
    makes the step raise it (once per step index, like a real transient).
    ``cfl(sim)`` gives each step's Courant number.
    """

    def __init__(self, dt=0.1, fail_if=None, cfl=None):
        self.step_count = 0
        self.time = 0.0
        self.dt = dt
        self.history = []
        self.stat_samples = []
        self.adaptive = False
        self.config = SimpleNamespace(dt_min=1e-4, dt_max=1.0, adaptive_cfl=None)
        self.state = np.zeros(4)
        self.fail_if = fail_if or (lambda sim: None)
        self.cfl = cfl or (lambda sim: 0.1)

    # Checkpoint surface.
    def state_arrays(self):
        return {
            "state": self.state,
            "step_count": np.asarray(self.step_count),
            "time": np.asarray(self.time),
            "dt": np.asarray(self.dt),
        }

    def load_state(self, arrays):
        self.state = arrays["state"].copy()
        self.step_count = int(arrays["step_count"])
        self.time = float(arrays["time"])
        self.dt = float(arrays["dt"])

    def state_shards(self):
        return [self.state_arrays()]

    def restore_shards(self, shards):
        (arrays,) = shards
        self.load_state(arrays)

    def run(self, n_steps=None, end_time=None, **kw):
        for _ in range(n_steps):
            if end_time is not None and self.time >= end_time - 1e-12:
                return
            exc = self.fail_if(self)
            if exc is not None:
                raise exc
            self.step_count += 1
            self.time += self.dt
            self.state = self.state + self.dt
            self.history.append(
                SimpleNamespace(
                    step=self.step_count,
                    time=self.time,
                    dt=self.dt,
                    cfl=self.cfl(self),
                    pressure_iterations=2,
                    kinetic_energy=1.0,
                    divergence=1e-8,
                )
            )


class TestRunnerUnit:
    def test_clean_run_checkpoints_and_no_retries(self):
        sim = FakeSim()
        runner = ResilientRunner(sim, checkpoint_interval=5)
        result = runner.run(n_steps=20)
        assert sim.step_count == 20
        assert result.retries == 0
        assert result.checkpoints == 4
        assert len(result.results) == 20
        assert result.events.count("rollback") == 0

    def test_divergence_rolls_back_and_reduces_dt(self):
        def fail(sim):
            # Diverges stepping past step 10 until dt has been halved.
            if sim.step_count >= 10 and sim.dt > 0.06:
                return FloatingPointError("simulation diverged: kinetic energy")

        sim = FakeSim(dt=0.1, fail_if=fail)
        runner = ResilientRunner(sim, checkpoint_interval=5, max_retries=3, dt_factor=0.5)
        result = runner.run(n_steps=20)
        assert sim.step_count == 20
        assert result.retries == 1
        assert sim.dt == pytest.approx(0.05)
        assert result.events.count("rollback") == 1
        assert result.events.count("dt_reduction") == 1
        assert result.events.count("retry") == 1
        # The realized history is contiguous: no rolled-back steps remain.
        assert [r.step for r in result.results] == list(range(1, 21))

    def test_rank_failure_recovers_without_dt_reduction(self):
        fired = []

        def fail(sim):
            if sim.step_count == 7 and not fired:
                fired.append(True)
                return RankFailedError(3, "allreduce")

        sim = FakeSim(fail_if=fail)
        runner = ResilientRunner(sim, checkpoint_interval=4)
        result = runner.run(n_steps=12)
        assert sim.step_count == 12
        assert result.retries == 1
        assert sim.dt == pytest.approx(0.1)  # external fault: dt untouched
        assert result.events.count("dt_reduction") == 0

    def test_retry_budget_exhaustion_raises(self):
        sim = FakeSim(fail_if=lambda s: FloatingPointError("always diverges"))
        runner = ResilientRunner(sim, checkpoint_interval=5, max_retries=2)
        with pytest.raises(RetryBudgetExceededError) as exc_info:
            runner.run(n_steps=10)
        assert exc_info.value.events.count("retry") == 2

    def test_cfl_ceiling_rolls_back_and_reduces_dt(self):
        # The Courant number scales with dt and doubles after step 5, so
        # the second segment breaks the ceiling until dt is halved.
        sim = FakeSim(dt=0.1, cfl=lambda s: s.dt * (5.0 if s.step_count <= 5 else 15.0))
        runner = ResilientRunner(
            sim, checkpoint_interval=5, health=HealthCheck(cfl_max=1.0), dt_factor=0.5
        )
        result = runner.run(n_steps=20)
        assert sim.step_count == 20
        assert result.retries == 1
        (detected,) = result.events.of_kind("fault_detected")
        assert detected.data["cause"] == "cfl"
        assert "exceeds ceiling" in detected.detail
        assert result.events.count("rollback") == 1
        assert result.events.count("dt_reduction") == 1
        assert sim.dt == pytest.approx(0.05)
        assert max(r.cfl for r in result.results) <= 1.0
        # The rolled-back steps are gone: the realized history is contiguous.
        assert [r.step for r in result.results] == list(range(1, 21))

    def test_health_check_triggers_rollback_on_nonfinite_state(self):
        poked = []

        class PokingInjector(FaultInjector):
            def apply_field_faults(self, sim):
                if sim.step_count >= 6 and not poked:
                    poked.append(True)
                    sim.state = sim.state.copy()
                    sim.state[1] = np.nan
                    return [self._record("sdc", sim.step_count, "poked NaN")]
                return []

        sim = FakeSim()
        runner = ResilientRunner(
            sim,
            checkpoint_interval=3,
            health=HealthCheck(),
            fault_injector=PokingInjector(),
        )
        result = runner.run(n_steps=9)
        assert sim.step_count == 9
        assert np.all(np.isfinite(sim.state))
        assert result.retries == 1
        assert result.events.count("fault") == 1
        assert result.events.count("rollback") == 1

    def test_requires_step_target(self):
        with pytest.raises(ValueError):
            ResilientRunner(FakeSim()).run()

    def test_end_time_target(self):
        sim = FakeSim(dt=0.1)
        ResilientRunner(sim, checkpoint_interval=4).run(end_time=1.0)
        assert sim.time == pytest.approx(1.0, abs=0.15)


# -- end-to-end scenarios on the real simulation -------------------------------


def constant_dt_case():
    return rbc_box_case(
        2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=1e-2, perturbation_amplitude=0.1
    )


def adaptive_case():
    return rbc_box_case(
        2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=5e-3,
        perturbation_amplitude=0.1, adaptive_cfl=0.3,
    )


class FailingProcessor(Processor):
    name = "unstable-analysis"

    def process(self, tag, array, sim_time):
        raise RuntimeError("analysis routine keeps crashing")


class Collector(Processor):
    name = "collect"

    def __init__(self):
        self.items = []

    def process(self, tag, array, sim_time):
        self.items.append(sim_time)


class TestEndToEndRecovery:
    """Acceptance: injected field corruption + failing in-situ processor."""

    def test_recovery_matches_fault_free_reference(self, tmp_path):
        n_steps = 16

        ref = Simulation(constant_dt_case())
        ref.run(n_steps=n_steps)

        sim = Simulation(constant_dt_case())
        collector = Collector()
        pipeline = InSituPipeline([FailingProcessor(), collector]).open()
        sim.callbacks.append(
            lambda s: pipeline.put("temperature", s.temperature, s.time)
        )
        injector = FaultInjector(
            seed=5, schedule=[Fault("sdc", at_step=10, target="t0", mode="nan")]
        )
        runner = ResilientRunner(
            sim,
            store=ShardedCheckpointStore(tmp_path, capacity=3),
            checkpoint_interval=4,
            fault_injector=injector,
            max_retries=2,
        )
        result = runner.run(n_steps=n_steps, callback_interval=1)
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipeline.close()
        stats = pipeline.stats

        # The run completed through the fault...
        assert sim.step_count == n_steps
        assert result.retries == 1
        # ...the event log records the whole story...
        assert result.events.count("fault") == 1
        assert result.events.count("rollback") == 1
        assert result.events.count("retry") == 1
        assert result.events.count("checkpoint") >= 4
        # ...the failing processor was quarantined while the healthy one
        # kept receiving snapshots (including the replayed segment)...
        assert stats.quarantined == ["unstable-analysis"]
        assert len(collector.items) >= n_steps
        # ...and the transient fault was rolled back completely: the final
        # state reproduces the fault-free reference bit-for-bit.
        assert np.array_equal(sim.temperature, ref.temperature)
        assert [r.kinetic_energy for r in result.results] == [
            r.kinetic_energy for r in ref.history
        ]
        assert len(result.results) == n_steps

    def test_event_log_summary_readable(self, tmp_path):
        sim = Simulation(constant_dt_case())
        injector = FaultInjector(
            seed=1, schedule=[Fault("sdc", at_step=4, target="t0", mode="nan")]
        )
        runner = ResilientRunner(
            sim,
            store=ShardedCheckpointStore(tmp_path, capacity=2),
            checkpoint_interval=4,
            fault_injector=injector,
        )
        result = runner.run(n_steps=8)
        text = result.events.summary()
        assert "[fault]" in text and "[rollback]" in text and "[retry]" in text


class TestReducedDtRetry:
    """A retry at a smaller dt steps over history levels spaced by the old one."""

    def test_halved_step_keeps_the_scheme_order(self):
        def run(dt, n_steps):
            sim = Simulation(rbc_box_case(2e4, n=(2, 2, 2), lx=4, dt=dt))
            sim.run(n_steps=n_steps)
            return sim

        ref = run(2.5e-3, 136)
        uniform = run(5e-3, 68)
        sim = run(1e-2, 30)
        sim.dt = 5e-3  # what the runner's dt reduction sets
        sim.run(n_steps=8)
        assert sim.time == pytest.approx(ref.time)

        def err(s):
            return np.max(np.abs(s.velocity[2] - ref.velocity[2]))

        # Constant-step coefficients over the unequal levels cost ~10x.
        assert err(sim) <= 1.5 * err(uniform)

    def test_halving_recovers_a_diverging_run(self):
        case = rbc_box_case(
            1e6, n=(2, 2, 2), lx=4, aspect=2.0, dt=1.0, perturbation_amplitude=0.5
        )
        sim = Simulation(case)
        runner = ResilientRunner(sim, checkpoint_interval=2, max_retries=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = runner.run(n_steps=20)
        assert sim.step_count == 20
        assert result.events.count("dt_reduction") == result.retries > 0


class TestKillAndRestart:
    """Acceptance: restart from the newest valid epoch of the store
    reproduces the uninterrupted run's remaining StepResult sequence
    bit-for-bit."""

    @pytest.fixture(scope="class")
    def reference(self):
        ref = Simulation(adaptive_case())
        ref.run(n_steps=18)
        return ref

    def _interrupted_store(self, tmp_path):
        sim1 = Simulation(adaptive_case())
        runner = ResilientRunner(
            sim1,
            store=ShardedCheckpointStore(tmp_path, capacity=3),
            checkpoint_interval=3,
        )
        runner.run(n_steps=12)
        return sim1  # "killed" here: the process state is abandoned

    def _restart(self, tmp_path):
        """A fresh process: new simulation, store rescanned from disk."""
        sim2 = Simulation(adaptive_case())
        epoch, (arrays,), skipped = ShardedCheckpointStore(
            tmp_path, capacity=3
        ).restore_latest()
        sim2.load_state(arrays)
        return sim2, epoch, skipped

    def _assert_tail_matches(self, sim2, results, reference, start):
        ref_tail = reference.history[start:]
        assert [r.dt for r in results] == [r.dt for r in ref_tail]
        assert [r.time for r in results] == [r.time for r in ref_tail]
        assert [r.kinetic_energy for r in results] == [
            r.kinetic_energy for r in ref_tail
        ]
        assert np.array_equal(sim2.temperature, reference.temperature)
        ux1, _, uz1 = reference.velocity
        ux2, _, uz2 = sim2.velocity
        assert np.array_equal(ux1, ux2)
        assert np.array_equal(uz1, uz2)

    def test_restart_from_newest_checkpoint(self, tmp_path, reference):
        self._interrupted_store(tmp_path)
        sim2, epoch, skipped = self._restart(tmp_path)
        assert epoch == 12 and skipped == []
        results = sim2.run(n_steps=6)
        self._assert_tail_matches(sim2, results, reference, start=12)

    def test_restart_with_truncated_newest_checkpoint(self, tmp_path, reference):
        self._interrupted_store(tmp_path)
        shard = tmp_path / "epoch_00000012" / "shard_0000.npz"
        raw = shard.read_bytes()
        shard.write_bytes(raw[: len(raw) // 2])  # deliberate truncation

        sim2, epoch, skipped = self._restart(tmp_path)
        assert epoch == 9 and skipped == [12]
        results = sim2.run(n_steps=9)
        self._assert_tail_matches(sim2, results, reference, start=9)
