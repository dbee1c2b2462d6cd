"""End-to-end observability: an instrumented RBC run.

The headline acceptance test lives here: a 3-step box RBC run exports a
Chrome trace containing nested spans for every Fig. 4 phase.
"""

import json
import os
from collections import defaultdict

import pytest

from repro.core import Simulation, rbc_box_case
from repro.core.overlap import WorkerExecutor
from repro.observability import (
    Tracer,
    is_registered_span,
    text_report,
    to_chrome_trace,
    write_chrome_trace,
)

# The Fig. 4 wall-time taxonomy (see EXPERIMENTS.md, "Observability").
FIG4_PHASES = {
    "advection",
    "pressure",
    "velocity",
    "temperature",
    "gather_scatter",
    "insitu",
}


def _instrumented(n, lx):
    tracer = Tracer()
    config = rbc_box_case(1e4, n=n, lx=lx, aspect=1.0, perturbation_amplitude=0.1)
    sim = Simulation(config, tracer=tracer)
    sim.callbacks.append(lambda s: None)
    sim.run(n_steps=3, callback_interval=1, stats_interval=2)
    return sim, tracer


@pytest.fixture(scope="module")
def instrumented_run():
    return _instrumented((2, 2, 2), 4)


class TestInstrumentedRun:
    def test_chrome_trace_has_every_fig4_phase(self, instrumented_run, tmp_path):
        _, tracer = instrumented_run
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
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
        _, tracer = instrumented_run
        assert len(tracer.spans_named("step")) == 3
        # Krylov solve spans nest under their phase region.
        (pressure_solve,) = {s.parent.name for s in tracer.spans_named("krylov.pressure")}
        assert pressure_solve == "pressure"

    def test_worker_spans_nest_where_serial_ones_do(self, instrumented_run):
        _, tracer = instrumented_run

        def parents(name):
            return {s.parent.name for s in tracer.spans_named(name)}

        assert parents("temperature") == {"step"}
        assert parents("krylov.temperature") == {"temperature"}
        assert parents("krylov.velocity") == {"velocity"}

    def test_each_lane_nests(self, instrumented_run):
        # Chrome draws one row per tid; its "X" events must nest there.
        sim, tracer = instrumented_run
        lanes = defaultdict(list)
        for e in to_chrome_trace(tracer)["traceEvents"]:
            # gather_scatter is an aggregate of many calls placed to end at
            # the step's close, not one interval of the lane.
            if e["ph"] == "X" and e["name"] != "gather_scatter":
                lanes[e["tid"]].append((e["ts"], e["ts"] + e["dur"]))
        for intervals in lanes.values():
            open_ends: list[float] = []
            for start, end in sorted(intervals, key=lambda iv: (iv[0], -iv[1])):
                while open_ends and open_ends[-1] <= start:
                    open_ends.pop()
                assert not open_ends or end <= open_ends[-1]
                open_ends.append(end)
        assert len(lanes) == (2 if isinstance(sim.executor, WorkerExecutor) else 1)

    def test_every_recorded_name_is_registered(self, instrumented_run):
        # One name registry covers spans, events and counter samples alike.
        _, tracer = instrumented_run
        names = {s.name for s in tracer.walk()}
        assert {"sim.cfl", "sim.dt"} <= names
        assert all(is_registered_span(name) for name in names)

    def test_metrics_capture_solver_and_traffic(self, instrumented_run):
        # The counts live on the objects that keep them: the step history,
        # the schemes' solver monitors and the gather--scatter operator --
        # and the trace's per-step aggregate spans agree with the operator.
        sim, tracer = instrumented_run
        assert len(sim.history) == 3
        assert all(r.pressure_iterations > 0 for r in sim.history)
        assert sim.fluid.monitors["pressure"].iterations == sim.history[-1].pressure_iterations
        gs_spans = tracer.spans_named("gather_scatter")
        assert len(gs_spans) == 3
        assert sum(s.counters["calls"] for s in gs_spans) <= sim.space.gs.calls
        assert all(s.counters["calls"] > 0 and s.counters["bytes"] > 0 for s in gs_spans)

    def test_text_report_breaks_down_phases(self, instrumented_run):
        _, tracer = instrumented_run
        report = text_report(tracer)
        for phase in ("pressure", "velocity", "advection"):
            assert phase in report

    def test_uninstrumented_run_records_no_spans(self):
        config = rbc_box_case(1e4, n=(2, 2, 2), lx=4, aspect=1.0)
        sim = Simulation(config)
        sim.run(n_steps=1)
        assert not sim.tracer.enabled
        assert list(sim.tracer.walk()) == []
        # The step record still accumulates: it is the run's own history.
        assert len(sim.history) == 1


class TestInstrumentedWorkerRun(TestInstrumentedRun):
    """The same checks on a box at the worker-thread threshold.

    16,384 points per field (``repro.core.overlap``), on two cores with one
    BLAS thread: the temperature step and the v velocity solve trace from
    the worker thread.
    """

    @pytest.fixture(scope="class")
    def instrumented_run(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            mp.setenv("OPENBLAS_NUM_THREADS", "1")
            sim, tracer = _instrumented((4, 4, 2), 8)
        assert isinstance(sim.executor, WorkerExecutor)
        return sim, tracer
