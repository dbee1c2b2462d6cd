"""Tests for deterministic fault injection into SimWorld and field arrays."""

import numpy as np
import pytest

from repro.comm import SimWorld
from repro.resilience import Fault, FaultInjector, RankFailedError


class TestMessageFaults:
    def test_scheduled_drop_delivers_zeros(self):
        inj = FaultInjector(schedule=[Fault("drop", at_call=1)])
        w = SimWorld(2, fault_injector=inj)
        out = w.exchange({(0, 1): np.ones(3)})  # call 0: clean
        assert np.allclose(out[(0, 1)], 1.0)
        out = w.exchange({(0, 1): np.full(3, 7.0)})  # call 1: dropped
        assert np.allclose(out[(0, 1)], 0.0)
        assert [e.kind for e in inj.events] == ["drop"]
        # Traffic stats count the attempted send.
        assert w.stats.p2p_messages == 2

    def test_scheduled_corrupt_changes_buffer(self):
        inj = FaultInjector(seed=3, schedule=[Fault("corrupt", at_call=0)])
        w = SimWorld(2, fault_injector=inj)
        sent = np.ones(8)
        out = w.exchange({(0, 1): sent})
        assert not np.array_equal(out[(0, 1)], sent)
        assert np.array_equal(sent, np.ones(8))  # original untouched
        ev = inj.events[0]
        assert ev.kind == "corrupt"
        assert ev.data["src"] == 0 and ev.data["dst"] == 1

    def test_scheduled_delay_delivers_stale(self):
        inj = FaultInjector(schedule=[Fault("delay", at_call=1)])
        w = SimWorld(2, fault_injector=inj)
        w.exchange({(0, 1): np.full(2, 1.0)})
        out = w.exchange({(0, 1): np.full(2, 2.0)})  # delayed: previous buffer
        assert np.allclose(out[(0, 1)], 1.0)
        out = w.exchange({(0, 1): np.full(2, 3.0)})  # back to normal
        assert np.allclose(out[(0, 1)], 3.0)

    def test_delay_with_no_history_delivers_zeros(self):
        inj = FaultInjector(schedule=[Fault("delay", at_call=0)])
        w = SimWorld(2, fault_injector=inj)
        out = w.exchange({(0, 1): np.full(2, 9.0)})
        assert np.allclose(out[(0, 1)], 0.0)

    def test_random_faults_are_seed_deterministic(self):
        def run(seed):
            inj = FaultInjector(seed=seed, drop_rate=0.3, corrupt_rate=0.2)
            w = SimWorld(2, fault_injector=inj)
            for i in range(50):
                w.exchange({(0, 1): np.full(4, float(i + 1))})
            return [(e.kind, e.index) for e in inj.events]

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert len(run(7)) > 0


class TestRankFailure:
    def test_scheduled_collective_failure(self):
        inj = FaultInjector(
            schedule=[Fault("rank_failure", at_call=1, rank=1, op="allreduce")]
        )
        w = SimWorld(3, fault_injector=inj)
        vals = [1.0, 2.0, 3.0]
        assert w.allreduce_scalar(vals) == 6.0  # allreduce 0
        w.barrier()  # barrier 0
        with pytest.raises(RankFailedError) as exc_info:
            w.allreduce_scalar(vals)  # allreduce 1
        assert exc_info.value.rank == 1

    def test_collective_fault_must_name_its_op(self):
        for kind in ("rank_failure", "collective_sdc"):
            with pytest.raises(ValueError, match="op"):
                Fault(kind, at_call=0)

    def test_rank_failure_is_one_shot(self):
        inj = FaultInjector(schedule=[Fault("rank_failure", at_call=0, op="allreduce")])
        w = SimWorld(2, fault_injector=inj)
        with pytest.raises(RankFailedError):
            w.allreduce_scalar([1.0, 2.0])
        # The respawned rank participates normally afterwards.
        assert w.allreduce_scalar([1.0, 2.0]) == 3.0

    def test_gather_checks_for_failures(self):
        inj = FaultInjector(schedule=[Fault("rank_failure", at_call=0, op="gather")])
        w = SimWorld(2, fault_injector=inj)
        with pytest.raises(RankFailedError):
            w.gather([1.0, 2.0])


class TestSDC:
    def test_corrupt_array_bitflip_is_catastrophic(self):
        inj = FaultInjector(seed=1)
        a = np.ones(100)
        detail = inj.corrupt_array(a)
        assert np.count_nonzero(a != 1.0) == 1
        bad = a[a != 1.0][0]
        # Top exponent bits flipped: the value is absurd, not a blip.
        assert not np.isfinite(bad) or abs(bad) > 1e4 or abs(bad) < 1e-4
        assert detail["element"] == int(np.flatnonzero(a != 1.0)[0])

    def test_corrupt_array_nan_mode(self):
        inj = FaultInjector(seed=2)
        a = np.ones(10)
        inj.corrupt_array(a, mode="nan")
        assert np.count_nonzero(np.isnan(a)) == 1

    def test_corruption_is_seed_deterministic(self):
        a1, a2 = np.ones(50), np.ones(50)
        FaultInjector(seed=9).corrupt_array(a1)
        FaultInjector(seed=9).corrupt_array(a2)
        assert np.array_equal(a1, a2, equal_nan=True)

    class FakeApp:
        """One shard holding ``t0``; ``restore_shards`` installs a copy."""

        def __init__(self, step_count):
            self.step_count = step_count
            self.t0 = np.ones(20)
            self.restored = 0

        def state_shards(self):
            return [{"t0": self.t0.copy()}]

        def restore_shards(self, shards):
            (arrays,) = shards
            self.t0 = arrays["t0"].copy()
            self.restored += 1

    def test_apply_field_faults_fires_once(self):
        app = self.FakeApp(step_count=5)
        inj = FaultInjector(seed=0, schedule=[Fault("sdc", at_step=4, target="t0", mode="nan")])
        fired = inj.apply_field_faults(app)
        assert len(fired) == 1
        assert np.count_nonzero(np.isnan(app.t0)) == 1
        assert app.restored == 1
        # Replay after rollback: the transient fault does not re-fire.
        app.t0[:] = 1.0
        assert inj.apply_field_faults(app) == []
        assert not np.any(np.isnan(app.t0))
        assert app.restored == 1

    def test_field_fault_waits_for_step(self):
        app = self.FakeApp(step_count=2)
        inj = FaultInjector(schedule=[Fault("sdc", at_step=10, target="t0", mode="nan")])
        assert inj.apply_field_faults(app) == []
        assert app.restored == 0
        app.step_count = 10
        assert len(inj.apply_field_faults(app)) == 1

    def test_unknown_target_raises(self):
        inj = FaultInjector(schedule=[Fault("sdc", at_step=0, target="vorticity")])
        with pytest.raises(ValueError, match="unknown SDC target"):
            inj.apply_field_faults(self.FakeApp(step_count=1))


class TestTargetedCollectiveFaults:
    def test_op_targeted_failure_ignores_other_collectives(self):
        # "Kill rank 1 at the third *allreduce*" regardless of barriers.
        inj = FaultInjector(
            schedule=[Fault("rank_failure", at_call=2, rank=1, op="allreduce")]
        )
        w = SimWorld(2, fault_injector=inj)
        vals = [1.0, 2.0]
        w.allreduce_scalar(vals)  # allreduce 0
        w.barrier()
        w.barrier()
        w.allreduce_scalar(vals)  # allreduce 1
        w.barrier()
        with pytest.raises(RankFailedError) as exc_info:
            w.allreduce_scalar(vals)  # allreduce 2
        assert exc_info.value.rank == 1

    def test_barrier_targeted_failure(self):
        inj = FaultInjector(schedule=[Fault("rank_failure", at_call=1, op="barrier")])
        w = SimWorld(2, fault_injector=inj)
        w.allreduce_scalar([1.0, 2.0])
        w.barrier()  # barrier 0
        w.allreduce_scalar([1.0, 2.0])
        with pytest.raises(RankFailedError):
            w.barrier()  # barrier 1

    def test_scalar_and_array_allreduce_share_the_family_counter(self):
        inj = FaultInjector(
            schedule=[Fault("rank_failure", at_call=1, op="allreduce")]
        )
        w = SimWorld(2, fault_injector=inj)
        w.allreduce_scalar([1.0, 2.0])  # allreduce 0 (scalar flavour)
        with pytest.raises(RankFailedError):
            w.allreduce_array([np.ones(2), np.ones(2)])  # allreduce 1


class TestReplayLog:
    def test_replay_round_trip_reproduces_faults(self):
        def drive(inj):
            w = SimWorld(2, fault_injector=inj)
            for i in range(30):
                w.exchange({(0, 1): np.full(4, float(i + 1))})
            return [(e.kind, e.index) for e in inj.events]

        original = FaultInjector(
            seed=11,
            schedule=[Fault("drop", at_call=3), Fault("corrupt", at_call=7)],
            drop_rate=0.1,
            delay_rate=0.1,
        )
        events = drive(original)
        replay = original.export_replay()
        assert replay["seed"] == 11
        assert len(replay["schedule"]) == 2
        assert [e["kind"] for e in replay["events"]] == [k for k, _ in events]

        rebuilt = FaultInjector.from_replay(replay)
        assert drive(rebuilt) == events

    def test_replay_is_json_serializable(self):
        import json

        inj = FaultInjector(seed=4, schedule=[Fault("drop", at_call=0)])
        w = SimWorld(2, fault_injector=inj)
        w.exchange({(0, 1): np.ones(2)})
        text = json.dumps(inj.export_replay())
        assert json.loads(text) == inj.export_replay()
