"""End-to-end observability: an instrumented RBC run and the bridges.

The headline acceptance test lives here: a 3-step box RBC run exports a
Chrome trace containing nested spans for every Fig. 4 phase.
"""

import json

import numpy as np
import pytest

from repro.core import Simulation, rbc_box_case
from repro.insitu.pipeline import InSituPipeline, Processor
from repro.observability import (
    MetricsRegistry,
    Tracer,
    text_report,
    write_chrome_trace,
)
from repro.observability.bridge import (
    TracedEventLog,
    publish_gather_scatter,
    record_solver_monitor,
)
from repro.solvers.monitor import SolverMonitor

# The Fig. 4 wall-time taxonomy (see EXPERIMENTS.md, "Observability").
FIG4_PHASES = {
    "advection",
    "pressure",
    "velocity",
    "temperature",
    "gather_scatter",
    "insitu",
}


@pytest.fixture(scope="module")
def instrumented_run():
    tracer = Tracer()
    metrics = MetricsRegistry()
    config = rbc_box_case(1e4, n=(2, 2, 2), lx=4, aspect=1.0, perturbation_amplitude=0.1)
    sim = Simulation(config, tracer=tracer, metrics=metrics)
    sim.callbacks.append(lambda s: None)
    sim.run(n_steps=3, callback_interval=1, stats_interval=2)
    return sim, tracer, metrics


class TestInstrumentedRun:
    def test_chrome_trace_has_every_fig4_phase(self, instrumented_run, tmp_path):
        _, tracer, metrics = instrumented_run
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer, metrics)
        trace = json.loads(path.read_text())  # chrome://tracing-loadable JSON
        names = {e["name"] for e in trace["traceEvents"]}
        assert FIG4_PHASES <= names
        # Spans must be *nested*: phase events sit inside a step event.
        events = {e["name"]: e for e in trace["traceEvents"] if e.get("ph") == "X"}
        step = events["step"]
        for phase in ("advection", "pressure", "velocity", "gather_scatter"):
            ev = events[phase]
            assert step["ts"] - 1e-6 <= ev["ts"]
            assert ev["ts"] + ev["dur"] <= step["ts"] + step["dur"] + 1e-6

    def test_step_spans_one_per_step(self, instrumented_run):
        _, tracer, _ = instrumented_run
        assert len(tracer.spans_named("step")) == 3
        # Krylov solve spans nest under their phase region.
        (pressure_solve,) = {s.parent.name for s in tracer.spans_named("krylov.pressure")}
        assert pressure_solve == "pressure"

    def test_metrics_capture_solver_and_traffic(self, instrumented_run):
        _, _, metrics = instrumented_run
        assert metrics.counter("sim.steps").value == 3
        assert metrics.histogram("solver.pressure.iterations").count == 3
        assert metrics.counter("gs.calls").value > 0
        assert metrics.counter("gs.bytes_moved").value > 0

    def test_text_report_breaks_down_phases(self, instrumented_run):
        _, tracer, metrics = instrumented_run
        report = text_report(tracer, metrics)
        for phase in ("pressure", "velocity", "advection"):
            assert phase in report

    def test_uninstrumented_run_records_no_spans(self):
        config = rbc_box_case(1e4, n=(2, 2, 2), lx=4, aspect=1.0)
        sim = Simulation(config)
        sim.run(n_steps=1)
        assert not sim.tracer.enabled
        assert list(sim.tracer.walk()) == []
        # Metrics still accumulate (they are cheap and always on).
        assert sim.metrics.counter("sim.steps").value == 1


class TestBridges:
    def test_traced_event_log_mirrors_into_tracer(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        log = TracedEventLog(tracer, metrics)
        log.record("rollback", step=7, detail="dt reduced")
        assert log.count("rollback") == 1  # still a full EventLog
        (ev,) = tracer.spans_named("resilience.rollback")
        assert ev.instant and ev.tags["step"] == 7
        assert metrics.counter("resilience.rollback").value == 1

    def test_record_solver_monitor(self):
        metrics = MetricsRegistry()
        mon = SolverMonitor(tol=1e-8, name="pressure")
        mon.start(1.0, reference=4.0)
        mon.step(0.5)
        mon.step(1e-9)
        record_solver_monitor(mon, metrics)
        assert metrics.gauge("solver.pressure.final_residual").value == 1e-9
        assert metrics.gauge("solver.pressure.reference_residual").value == 4.0
        assert metrics.histogram("solver.pressure.iterations").count == 1
        assert metrics.counter("solver.pressure.solves").value == 1
        assert "solver.pressure.unconverged" not in metrics

    def test_unconverged_solve_counted(self):
        metrics = MetricsRegistry()
        mon = SolverMonitor(tol=1e-8, name="pressure")
        mon.start(1.0)
        mon.step(0.9)
        record_solver_monitor(mon, metrics)
        assert metrics.counter("solver.pressure.unconverged").value == 1

    def test_publish_gather_scatter(self, instrumented_run):
        sim, _, _ = instrumented_run
        metrics = MetricsRegistry()
        publish_gather_scatter(sim.space.gs, metrics)
        assert metrics.gauge("gs.calls").value > 0
        assert metrics.gauge("gs.bytes_moved").value > 0
        assert metrics.gauge("gs.seconds").value >= 0


class TestPipelineMetrics:
    def test_queue_depth_and_close_publish(self):
        class Sink(Processor):
            name = "sink"

            def process(self, tag, array, sim_time):
                pass

        metrics = MetricsRegistry()
        pipe = InSituPipeline([Sink()], metrics=metrics)
        with pipe:
            for _ in range(5):
                pipe.put("u", np.zeros(16))
        assert metrics.gauge("insitu.queue_depth").updates == 5
        assert metrics.gauge("insitu.items").value == 5
        assert metrics.gauge("insitu.bytes").value == 5 * 16 * 8
        assert metrics.gauge("insitu.processor.sink.seconds").value >= 0

    def test_quarantine_surfaces_in_metrics(self):
        class Broken(Processor):
            name = "broken"

            def process(self, tag, array, sim_time):
                raise ValueError("nope")

        metrics = MetricsRegistry()
        pipe = InSituPipeline([Broken()], quarantine_after=2, strict=False, metrics=metrics)
        with pipe:
            for _ in range(4):
                pipe.put("u", np.zeros(4))
        assert metrics.gauge("insitu.quarantined").value == 1
        assert metrics.gauge("insitu.processor.broken.failures").value >= 2
