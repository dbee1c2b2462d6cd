"""Flight recorder: bounded ring, atomic dumps, failure-path round trips."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Simulation, rbc_box_case
from repro.observability import (
    FlightBundle,
    FlightRecorder,
    Tracer,
)
from repro.observability.cli import main as cli_main
from repro.observability.fleet.flight import FLIGHT_DIR_ENV
from repro.resilience import (
    Fault,
    FaultInjector,
    ResilientRunner,
    RetryBudgetExceededError,
)

from tests.resilience.test_runner import FakeSim, fake_ring


def small_case(**overrides):
    kwargs = dict(n=(2, 2, 2), lx=4, aspect=2.0, dt=5e-3,
                  perturbation_amplitude=0.1, adaptive_cfl=0.3)
    kwargs.update(overrides)
    return rbc_box_case(2e4, **kwargs)


def fake_result(step, time=0.0):
    return SimpleNamespace(step=step, time=time, cfl=0.1)


class TestRing:
    def test_capacity_bounds_frames(self):
        rec = FlightRecorder(capacity=4)
        sim = SimpleNamespace()
        for s in range(1, 11):
            rec.record_step(sim, fake_result(s))
        assert [f.step for f in rec.frames] == [7, 8, 9, 10]

    def test_event_ring_is_bounded(self):
        rec = FlightRecorder(capacity=2, event_capacity=3)
        for i in range(10):
            rec.record_event("retry", step=i)
        assert len(rec.events) == 3
        assert [e["step"] for e in rec.events] == [7, 8, 9]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_frame_captures_monitors_metrics_and_spans(self):
        from repro.observability import MetricsRegistry
        from repro.solvers.monitor import SolverMonitor

        mon = SolverMonitor(tol=1e-8, name="pressure")
        mon.start(1.0)
        mon.step(1e-9)
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("step", step=3):
            with tracer.span("pressure"):
                pass
        metrics = MetricsRegistry()
        metrics.counter("sim.steps").inc()
        sim = SimpleNamespace(
            tracer=tracer,
            metrics=metrics,
            fluid=SimpleNamespace(monitors={"pressure": mon}),
            scalar=SimpleNamespace(monitors={}),
        )
        frame = FlightRecorder(capacity=2).record_step(sim, fake_result(3))
        assert frame.monitors[0]["name"] == "pressure"
        assert frame.monitors[0]["converged"] is True
        assert frame.metrics["sim.steps"]["value"] == 1.0
        assert [s["name"] for s in frame.spans] == ["step", "pressure"]


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        rec = FlightRecorder(capacity=8, out_dir=tmp_path)
        sim = SimpleNamespace()
        for s in range(1, 13):
            rec.record_step(sim, fake_result(s, time=s * 0.1))
        rec.record_event("resilience.rollback", step=12, detail="spike")
        path = rec.dump(reason="manual")
        bundle = FlightBundle.load(path)
        assert bundle.header["reason"] == "manual"
        assert bundle.steps == list(range(5, 13))
        assert len(bundle.frames) >= 8
        assert bundle.events[0]["event"] == "resilience.rollback"
        assert bundle.frames[-1].result["cfl"] == pytest.approx(0.1)

    def test_dump_is_atomic_no_tmp_left(self, tmp_path):
        rec = FlightRecorder(capacity=2, out_dir=tmp_path)
        rec.record_step(SimpleNamespace(), fake_result(1))
        path = rec.dump()
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_default_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path / "flights"))
        rec = FlightRecorder(capacity=2)
        rec.record_step(SimpleNamespace(), fake_result(7))
        path = rec.dump(reason="divergence")
        assert path.parent == tmp_path / "flights"
        assert path.name == "flight_step000007_divergence.jsonl"

    def test_load_rejects_headerless_file(self, tmp_path):
        bad = tmp_path / "x.jsonl"
        bad.write_text(json.dumps({"kind": "event", "event": "e", "step": 1,
                                   "time": 0.0, "detail": "", "data": {}}) + "\n")
        with pytest.raises(ValueError, match="no header"):
            FlightBundle.load(bad)

    def test_armed_dumps_on_exception_and_reraises(self, tmp_path):
        rec = FlightRecorder(capacity=2, out_dir=tmp_path)
        rec.record_step(SimpleNamespace(), fake_result(1))
        with pytest.raises(RuntimeError, match="boom"):
            with rec.armed(reason="crash"):
                raise RuntimeError("boom")
        assert len(rec.dumps) == 1
        bundle = FlightBundle.load(rec.dumps[0])
        assert bundle.header["reason"] == "crash"
        assert any(e["event"] == "flight.exception" for e in bundle.events)


class TestSimulationDivergenceDump:
    def test_divergence_guard_dumps_last_steps(self, tmp_path):
        flight = FlightRecorder(capacity=8, out_dir=tmp_path)
        sim = Simulation(small_case(), flight=flight)
        sim.run(n_steps=3)
        sim.scalar.temperature[0, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            sim.run(n_steps=2)
        assert len(flight.dumps) == 1
        bundle = FlightBundle.load(flight.dumps[0])
        assert bundle.header["reason"] == "divergence"
        assert [e["event"] for e in bundle.events] == ["flight.divergence"]
        assert bundle.steps[-1] == 4  # the poisoned step made it into the ring
        assert bundle.frames[-1].monitors  # solver monitors rode along


class TestResilientRunnerFlight:
    def test_retry_budget_dump_and_cli_round_trip(self, tmp_path, capsys):
        # Injected rank death on every segment: the budget exhausts, the
        # black box lands on disk, and the CLI parses it back.
        flight = FlightRecorder(capacity=8, out_dir=tmp_path)
        injector = FaultInjector(
            schedule=[Fault(kind="rank_failure", at_call=c, rank=2) for c in range(50)]
        )

        def die(sim):
            return injector.on_collective("allreduce") or None

        sim = FakeSim(fail_if=lambda s: _raise_or_none(die, s))
        runner = ResilientRunner(
            sim, ring=fake_ring(), checkpoint_interval=4, max_retries=2, flight=flight
        )
        for s in range(1, 4):
            flight.record_step(sim, fake_result(s))
        with pytest.raises(RetryBudgetExceededError):
            runner.run(n_steps=12)
        assert len(flight.dumps) == 1

        bundle = FlightBundle.load(flight.dumps[0])
        assert bundle.header["reason"] == "retry_budget"
        kinds = [e["event"] for e in bundle.events]
        assert "fault_detected" in kinds
        assert "rollback" in kinds
        assert kinds[-1] == "flight.retry_budget"
        # Event-log mirroring matched the canonical record.
        assert runner.events.count("fault_detected") == kinds.count("fault_detected")

        rc = cli_main(["flight", str(flight.dumps[0])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reason='retry_budget'" in out
        assert "[flight.retry_budget]" in out

    def test_runner_adopts_sim_flight(self, tmp_path):
        flight = FlightRecorder(capacity=4, out_dir=tmp_path)
        sim = FakeSim()
        sim.flight = flight
        runner = ResilientRunner(sim, ring=fake_ring(), checkpoint_interval=5)
        assert runner.flight is flight
        runner.run(n_steps=5)
        kinds = [e["event"] for e in flight.events]
        assert "checkpoint" in kinds and "complete" in kinds


def _raise_or_none(fn, sim):
    """Adapter: FaultInjector.on_collective raises; FakeSim wants a return."""
    try:
        fn(sim)
    except BaseException as exc:
        return exc
    return None
