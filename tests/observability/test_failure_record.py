"""The failure record is the Chrome trace: every question is answered from the file.

A run that diverges, or a chaos scenario that loses a rank, leaves its
story in the tracer -- the ``sim.cfl`` lane, the ``krylov.pressure`` spans
with their iteration counts, the ``resilience.*`` and ``sim.divergence``
events.  These tests dump the trace with ``write_chrome_trace`` and read
nothing but the JSON back.
"""

import json
import warnings

import numpy as np
import pytest

from repro.core import Simulation, rbc_box_case
from repro.observability import Tracer, write_chrome_trace
from repro.resilience import ResilientRunner, RetryBudgetExceededError
from repro.resilience.chaos.__main__ import main as chaos_main


def load_events(path):
    """The trace's events in time order (metadata dropped)."""
    events = json.loads(path.read_text())["traceEvents"]
    return sorted((e for e in events if e["ph"] != "M"), key=lambda e: e["ts"])


def enclosing(events, name, ts):
    """The ``name`` complete span whose interval contains ``ts``."""
    (span,) = [
        e for e in events
        if e["name"] == name and e["ph"] == "X" and e["ts"] <= ts <= e["ts"] + e["dur"]
    ]
    return span


class TestDivergingRun:
    """Too large a dt at Ra = 1e6: CFL climbs, the runner retries, then gives up.

    One retry at 3/4 of the step is not enough here; halving it is (see
    ``tests/resilience/test_runner.py``).
    """

    @pytest.fixture(scope="class")
    def events(self, tmp_path_factory):
        case = rbc_box_case(
            1e6, n=(2, 2, 2), lx=4, aspect=2.0, dt=1.0, perturbation_amplitude=0.5
        )
        tracer = Tracer()
        runner = ResilientRunner(
            Simulation(case, tracer=tracer),
            checkpoint_interval=2,
            max_retries=1,
            dt_factor=0.75,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RetryBudgetExceededError):
                runner.run(n_steps=20)
        path = tmp_path_factory.mktemp("trace") / "diverging.json"
        write_chrome_trace(path, tracer)
        return load_events(path)

    def test_step_where_cfl_crossed_one(self, events):
        first = next(e for e in events if e["name"] == "sim.cfl" and e["args"]["value"] > 1)
        first_fault = next(e for e in events if e["name"] == "resilience.fault_detected")
        assert first["ts"] < first_fault["ts"]
        assert enclosing(events, "step", first["ts"])["args"]["step"] == 1

    def test_pressure_iterations_climb(self, events):
        solves = [e for e in events if e["name"] == "krylov.pressure"]
        iterations = [e["args"]["iterations"] for e in solves]
        assert max(iterations[1:]) > iterations[0]
        assert all(e["args"]["initial_residual"] > 0 for e in solves)

    def test_last_retry_precedes_the_retry_budget(self, events):
        kinds = [e["name"] for e in events if e["name"].startswith("resilience.")]
        assert kinds[-5:] == [
            "resilience.rollback",
            "resilience.dt_reduction",
            "resilience.retry",
            "resilience.fault_detected",
            "resilience.retry_budget",
        ]
        budget = next(e for e in reversed(events) if e["name"] == "resilience.retry_budget")
        assert budget["args"]["attempts"] == 1
        assert "retry budget exhausted" in budget["args"]["detail"]


def test_chaos_recovery_events_nest_in_their_scenario(tmp_path, capsys):
    path = tmp_path / "chaos.json"
    code = chaos_main(["--only", "kill-rank-early-warm", "--trace", str(path)])
    assert code == 0
    assert f"trace: {path}" in capsys.readouterr().out
    events = load_events(path)
    (scenario,) = [e for e in events if e["name"] == "chaos.scenario"]
    assert scenario["args"]["scenario"] == "kill-rank-early-warm"
    resilience = [e for e in events if e["name"].startswith("resilience.")]
    kinds = {e["name"] for e in resilience}
    assert {"resilience.fault_detected", "resilience.rollback", "resilience.retry"} <= kinds
    for e in resilience:
        assert scenario["ts"] <= e["ts"] <= scenario["ts"] + scenario["dur"]


def test_divergence_guard_leaves_an_event(tmp_path):
    case = rbc_box_case(
        2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=5e-3,
        perturbation_amplitude=0.1, adaptive_cfl=0.3,
    )
    tracer = Tracer()
    sim = Simulation(case, tracer=tracer)
    sim.run(n_steps=3)
    sim.scalar.temperature[0, 0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError) as err:
        sim.run(n_steps=2)
    path = tmp_path / "divergence.json"
    write_chrome_trace(path, tracer)
    (event,) = [e for e in load_events(path) if e["name"] == "sim.divergence"]
    assert event["args"]["step"] == 4
    assert event["args"]["quantity"] in event["args"]["detail"]
    assert event["args"]["detail"] == str(err.value)
