"""Exporter tests: Chrome-trace JSON, text report."""

import json
import math

import pytest

from repro.observability.export import text_report, to_chrome_trace, write_chrome_trace
from repro.observability.tracer import Tracer

from .test_tracer import FakeClock


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("step", step=1):
        with tracer.span("pressure") as sp:
            sp.add("iterations", 12)
            clock.advance(0.5)
        tracer.event("fault", cat="resilience")
        tracer.sample("sim.cfl", 0.4)
        clock.advance(0.25)
    return tracer


class TestChromeTrace:
    def test_complete_events_with_microsecond_timestamps(self, traced):
        trace = to_chrome_trace(traced)
        events = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        assert events["step"]["dur"] == pytest.approx(0.75e6)
        assert events["pressure"]["ts"] == pytest.approx(0.0)
        assert events["pressure"]["dur"] == pytest.approx(0.5e6)
        assert events["pressure"]["args"]["iterations"] == 12

    def test_instant_and_counter_sample_events(self, traced):
        trace = to_chrome_trace(traced)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["fault"]
        assert instants[0]["cat"] == "resilience"
        (lane,) = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert lane["name"] == "sim.cfl"
        assert lane["ts"] == pytest.approx(0.5e6)
        assert lane["args"] == {"value": 0.4}

    def test_open_spans_are_skipped(self):
        tracer = Tracer(clock=FakeClock())
        cm = tracer.span("open")
        cm.__enter__()
        assert to_chrome_trace(tracer)["traceEvents"][-1]["name"] == "process_name"

    def test_written_file_is_loadable_json(self, traced, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, traced)
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)

    def test_non_finite_values_survive_strict_json(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("pressure") as sp:
            sp.add("residual", math.nan)
            sp.add("bound", math.inf)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        # The raw file stays strict JSON: NaN drops to null, infinities
        # become the jsonio sentinels.
        (event,) = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["residual"] is None
        assert event["args"]["bound"] == "Infinity"


class TestTextReport:
    def test_contains_totals_and_shares(self, traced):
        report = text_report(traced)
        assert "step" in report and "pressure" in report
        assert "% of step" in report

    def test_empty_tracer(self):
        assert "(no spans recorded)" in text_report(Tracer(clock=FakeClock()))
