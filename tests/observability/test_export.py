"""Exporter tests: Chrome-trace JSON, JSONL, text report."""

import json
import math

import pytest

from repro.observability.export import (
    span_records,
    text_report,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.observability.metrics import MetricsRegistry
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

    def test_instant_events_and_metadata(self, traced):
        metrics = MetricsRegistry()
        metrics.counter("sim.steps").inc(3)
        trace = to_chrome_trace(traced, metrics)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["fault"]
        assert instants[0]["cat"] == "resilience"
        assert trace["metadata"]["metrics"]["sim.steps"]["value"] == 3

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


class TestJsonl:
    def test_records_carry_hierarchy(self, traced):
        recs = list(span_records(traced))
        by_name = {r["name"]: r for r in recs}
        assert by_name["pressure"]["parent"] == "step"
        assert by_name["pressure"]["depth"] == 1
        assert by_name["step"]["parent"] is None
        assert by_name["fault"]["instant"] is True

    def test_written_jsonl_round_trips(self, traced, tmp_path):
        path = tmp_path / "spans.jsonl"
        write_jsonl(path, traced)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0]["name"] == "step"

    def test_non_finite_values_survive_strict_json(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("pressure") as sp:
            sp.add("residual", math.nan)
            sp.add("bound", math.inf)
        path = tmp_path / "spans.jsonl"
        write_jsonl(path, tracer)
        # The raw file stays strict JSON: NaN drops to null, infinities
        # become the jsonio sentinels.
        (rec,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert rec["counters"]["residual"] is None
        assert rec["counters"]["bound"] == "Infinity"


class TestTextReport:
    def test_contains_totals_and_shares(self, traced):
        report = text_report(traced)
        assert "step" in report and "pressure" in report
        assert "% of step" in report

    def test_empty_tracer(self):
        assert "(no spans recorded)" in text_report(Tracer(clock=FakeClock()))

    def test_metrics_appended(self, traced):
        metrics = MetricsRegistry()
        metrics.counter("gs.calls").inc(9)
        assert "gs.calls" in text_report(traced, metrics)
