"""Determinism + replay suite for the startup kernel autotuner.

The tuning table is a committed artifact: the same measurements must
always produce the same selections (argmin with declaration-order
tie-break), the table must survive a JSON round trip bit-for-bit, and a
*stale* table -- one naming a variant this build no longer knows -- must
fall back to the defaults with a logged ``autotune.fallback`` event
rather than taking the solver down.  Tests inject a scripted ``clock``
into the benchmark layer so the measurements themselves are pinned.
"""

import json
from pathlib import Path

import pytest

from repro.observability import MetricsRegistry
from repro.sem.autotune import (
    DEFAULTS,
    DIMENSIONS,
    TABLE_VERSION,
    TuningEntry,
    TuningTable,
    apply_tuning,
    autotune,
    benchmark_smoother_dtype,
)


class ScriptedClock:
    """A fake ``time.perf_counter`` ticking a fixed amount per call.

    Every ``_time_call`` measurement becomes exactly ``step`` seconds, so
    all variants tie and the declaration-order tie-break is exposed; a
    ``biases`` map {call_index: extra} can slow down specific intervals.
    """

    def __init__(self, step: float = 1.0, biases: dict[int, float] | None = None):
        self.t = 0.0
        self.calls = 0
        self.biases = biases or {}
        self.step = step

    def __call__(self) -> float:
        self.t += self.step + self.biases.get(self.calls, 0.0)
        self.calls += 1
        return self.t


class RecordingTracer:
    def __init__(self):
        self.events: list[tuple[str, dict]] = []

    def event(self, name: str, **tags):
        self.events.append((name, tags))


# -- determinism ---------------------------------------------------------------


def test_autotune_is_deterministic_under_a_fixed_clock():
    a = autotune(8, 5, repeats=2, clock=ScriptedClock())
    b = autotune(8, 5, repeats=2, clock=ScriptedClock())
    assert a.selections == b.selections
    assert a.measurements == b.measurements
    assert a.to_dict() == b.to_dict()


def test_ties_break_by_declaration_order():
    """All-equal measurements select the first (default) variant of every
    dimension -- the tie-break that makes the table reproducible."""
    entry = autotune(4, 3, repeats=1, clock=ScriptedClock())
    for dim, variants in DIMENSIONS.items():
        times = entry.measurements[dim]
        assert len(set(times.values())) == 1, f"{dim} measurements did not tie"
        assert entry.selections[dim] == variants[0]
    assert entry.selections == DEFAULTS


def test_selection_is_argmin_of_measurements():
    """Biasing one timed interval flips the winner."""
    # benchmark_smoother_dtype times "float64" first: interval (calls 0,1).
    # Slowing it makes "float32" the argmin.
    clock = ScriptedClock(biases={1: 100.0})
    times = benchmark_smoother_dtype(4, 4, repeats=1, clock=clock)
    assert times["float64"] > times["float32"]
    entry = autotune(4, 3, repeats=1, clock=ScriptedClock(biases={1: 100.0}))
    assert entry.selections["smoother_dtype"] == "float32"


def test_autotune_emits_sweep_event():
    tracer = RecordingTracer()
    autotune(4, 3, repeats=1, clock=ScriptedClock(), tracer=tracer)
    names = [n for n, _ in tracer.events]
    assert "autotune.sweep" in names
    _, tags = tracer.events[names.index("autotune.sweep")]
    assert tags["nelem"] == 4 and tags["p"] == 3
    assert tags["pick_smoother_dtype"] in DIMENSIONS["smoother_dtype"]


def test_real_clock_sweep_selects_known_variants():
    """An un-mocked sweep (tiny shape) still yields only known variants."""
    entry = autotune(2, 2, repeats=1)
    for dim, pick in entry.selections.items():
        assert pick in DIMENSIONS[dim]
        assert all(t >= 0.0 for t in entry.measurements[dim].values())


# -- table round trip ----------------------------------------------------------


def make_table() -> TuningTable:
    table = TuningTable()
    table.add(autotune(8, 5, repeats=1, clock=ScriptedClock()))
    table.add(autotune(27, 7, repeats=1, clock=ScriptedClock(biases={1: 9.0})))
    return table


def test_table_json_round_trip_is_exact():
    table = make_table()
    blob = table.to_json()
    again = TuningTable.from_json(blob)
    assert again.to_json() == blob
    assert [e.to_dict() for e in again.entries()] == [
        e.to_dict() for e in table.entries()
    ]


def test_table_save_load_round_trip(tmp_path):
    path = tmp_path / "tuning.json"
    table = make_table()
    table.save(path)
    # The artifact is stable text: saving twice yields identical bytes.
    first = path.read_text()
    table.save(path)
    assert path.read_text() == first
    again = TuningTable.load(path)
    assert again.to_json() == table.to_json()
    assert again.lookup(8, 5).selections == table.lookup(8, 5).selections


def test_table_lookup_is_exact_shape_match():
    table = make_table()
    assert table.lookup(8, 5) is not None
    assert table.lookup(8, 6) is None
    assert table.lookup(9, 5) is None


def test_version_mismatch_raises():
    blob = make_table().to_json()
    blob["version"] = TABLE_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        TuningTable.from_json(blob)


def test_entry_dict_round_trip():
    entry = autotune(8, 5, repeats=1, clock=ScriptedClock())
    again = TuningEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
    assert again.to_dict() == entry.to_dict()


# -- stale-table fallback ------------------------------------------------------


def test_unknown_variant_falls_back_to_default_with_event():
    tracer = RecordingTracer()
    metrics = MetricsRegistry()
    applied = apply_tuning({"smoother_dtype": "bfloat16"}, tracer=tracer, metrics=metrics)
    assert applied == DEFAULTS
    fallbacks = [t for n, t in tracer.events if n == "autotune.fallback"]
    assert fallbacks == [
        {
            "dimension": "smoother_dtype",
            "requested": "bfloat16",
            "used": DEFAULTS["smoother_dtype"],
        }
    ]
    assert metrics.counter("autotune.fallback").value == 1.0


def test_valid_selection_applies_without_fallback():
    tracer = RecordingTracer()
    metrics = MetricsRegistry()
    applied = apply_tuning({"smoother_dtype": "float32"}, tracer=tracer, metrics=metrics)
    assert applied == {"smoother_dtype": "float32"}
    assert [n for n, _ in tracer.events] == []
    assert metrics.counter("autotune.fallback").value == 0.0
    # The applied pick is exported as a gauge for dashboards.
    idx = metrics.gauge("autotune.smoother_dtype.variant_index").value
    assert DIMENSIONS["smoother_dtype"][int(idx)] == "float32"


def test_none_selection_means_all_defaults():
    assert apply_tuning(None) == DEFAULTS


# The committed tuning_table.json as it was when the sweep still had the
# ``contraction`` and ``operator_cache`` dimensions.
THREE_DIMENSION_TABLE = {
    "version": 1,
    "entries": [
        {
            "nelem": 27,
            "p": 5,
            "measurements": {
                "contraction": {"axis": 0.0001346019998891279, "batched": 3.216900040570181e-05},
                "operator_cache": {"off": 3.895999907399528e-05, "on": 1.0399999155197293e-06},
                "smoother_dtype": {"float32": 0.00013512700024875812, "float64": 6.457000017690007e-05},
            },
            "selections": {
                "contraction": "batched",
                "operator_cache": "on",
                "smoother_dtype": "float64",
            },
        },
        {
            "nelem": 216,
            "p": 7,
            "measurements": {
                "contraction": {"axis": 0.002693217000341974, "batched": 0.0005834750008943956},
                "operator_cache": {"off": 4.6134000513120554e-05, "on": 1.4880006347084418e-06},
                "smoother_dtype": {"float32": 0.001012841999909142, "float64": 0.001347565999822109},
            },
            "selections": {
                "contraction": "batched",
                "operator_cache": "on",
                "smoother_dtype": "float32",
            },
        },
    ],
}


def test_three_dimension_table_still_loads_extra_keys_ignored(tmp_path):
    path = tmp_path / "old_table.json"
    path.write_text(json.dumps(THREE_DIMENSION_TABLE))
    entry = TuningTable.load(path).lookup(216, 7)
    tracer = RecordingTracer()
    assert apply_tuning(entry.selections, tracer=tracer) == {"smoother_dtype": "float32"}
    assert tracer.events == []


def test_committed_table_has_exactly_the_tuned_dimensions():
    table = TuningTable.load(Path(__file__).resolve().parents[2] / "tuning_table.json")
    for entry in table.entries():
        assert set(entry.selections) == set(entry.measurements) == set(DIMENSIONS)


# -- Simulation integration ----------------------------------------------------


def _tiny_case(**overrides):
    from repro.core.rbc import rbc_box_case

    return rbc_box_case(1e4, n=(2, 2, 2), lx=4, **overrides)


def test_simulation_consults_tuning_table(tmp_path):
    from repro.core.simulation import Simulation

    config = _tiny_case()
    nelem, p = config.mesh.nelv, config.lx - 1
    table = TuningTable()
    entry = autotune(nelem, p, repeats=1, clock=ScriptedClock())
    entry.selections["smoother_dtype"] = "float32"
    table.add(entry)
    path = tmp_path / "table.json"
    table.save(path)

    sim = Simulation(dataclasses_replace(config, tuning_table=str(path)))
    assert sim.tuning["smoother_dtype"] == "float32"
    assert sim.config.smoother_dtype == "float32"
    assert sim.fluid.hsmg.guard is not None


def test_simulation_missing_table_falls_back(tmp_path):
    from repro.core.simulation import Simulation

    config = _tiny_case()
    sim = Simulation(
        dataclasses_replace(config, tuning_table=str(tmp_path / "nope.json"))
    )
    assert sim.tuning == DEFAULTS
    assert sim.metrics.counter("autotune.fallback").value >= 1.0
    assert sim.config.smoother_dtype == "float64"


def dataclasses_replace(config, **kw):
    import dataclasses

    return dataclasses.replace(config, **kw)
