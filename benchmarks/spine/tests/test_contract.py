"""``BENCHMARK.json`` stays inside the benchmark driver's limits."""

import re

from benchmarks.spine.run import ROOT, load_contract

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_keys_counts_and_sizes():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60


def test_names_units_and_bounds():
    contract = load_contract()
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_command_and_paths_stay_inside_the_benchmark():
    contract = load_contract()
    assert 1 <= len(contract["paths"]) <= 16 and len(contract["command"]) <= 32
    for path in contract["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    for word in contract["command"]:
        assert len(word) <= 200 and not word.startswith("/") and ".." not in word.split("/")
        if (ROOT / word).exists():
            assert any(word.startswith(p + "/") for p in contract["paths"])
