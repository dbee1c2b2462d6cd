"""``--quick`` smoke: all four workloads, both passes, and the result schema."""

import json
import math
import shutil
import subprocess
import sys

import pytest

from benchmarks.spine.run import ROOT, load_contract

RUN = [sys.executable, str(ROOT / "benchmarks" / "spine" / "run.py")]


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("spine")
    done = subprocess.run(
        RUN + ["--quick", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out, done.stdout


def test_every_workload_reports_every_declared_metric(quick_run):
    out, stdout = quick_run
    contract = load_contract()
    report = json.loads((out / "results.json").read_text())
    assert report["comparable"] is False and "not comparable" in stdout
    assert set(report["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, workload in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in contract[section]}
            measured = workload[section]
            assert {k: v["unit"] for k, v in measured.items()} == declared, name
            assert all(math.isfinite(v["value"]) for v in measured.values()), name
        assert all(v["value"] > 0 for v in workload["end_to_end"].values()), name
        assert workload["traced_identical_to_untraced"], name
        for run in workload["operations"].values():
            assert run["attempted"] >= 1 and run["failed"] == 0, name


def test_result_object_is_the_last_line_with_exactly_four_keys(quick_run):
    _, stdout = quick_run
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(results) == 8
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True


def test_scalar_transport_bypasses_the_preconditioner(quick_run):
    out, _ = quick_run
    layers = json.loads((out / "results.json").read_text())["workloads"]
    scalar = layers["scalar_transport_p7"]["per_layer"]
    box = layers["rbc_nu_p5"]["per_layer"]
    for metric in ("precond.hsmg_calls", "precond.hsmg_s", "precond.fdm_s", "precond.coarse_s",
                   "sem.ax_poisson_calls", "solvers.pressure_iters"):
        assert scalar[metric]["value"] == 0, metric
        assert box[metric]["value"] > 0, metric
    assert scalar["sem.convect_calls"]["value"] == 1
    assert 0.0 < box["core.attributed_frac"]["value"] <= 1.0


def test_spans_are_written_with_parent_links(quick_run):
    out, _ = quick_run
    index = json.loads((out / "trace.json").read_text())["spans"]
    trace = json.loads((out / index["rbc_cyl_p7"]).read_text())
    names = trace["names"]
    assert {"core.step", "precond.fdm", "sem.gs_add"} <= set(names)
    fdm = names.index("precond.fdm")
    span = next(s for s in trace["spans"] if s[0] == fdm)
    chain = []
    while span[3] >= 0:
        span = trace["spans"][span[3]]
        chain.append(names[span[0]])
    assert chain == ["precond.schwarz", "precond.hsmg", "solvers.pressure_solve",
                     "solvers.pressure_projection", "core.fluid_step", "core.step"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "spine", tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "rbc_nu_p5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
