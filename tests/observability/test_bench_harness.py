"""Perf-regression harness tests: comparator semantics and harness output.

The comparator tests are fully deterministic (synthetic records); the
harness tests run miniature versions of the real benchmarks so they stay
fast.  The committed repository-root baselines are validated structurally
and against the comparator's identity property.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.compare_bench import compare, main as compare_main
from benchmarks.perf_harness import (
    SCHEMA_VERSION,
    environment,
    kernel_benchmarks,
    noop_tracer_overhead,
    step_benchmark,
    write_tuning_artifacts,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_record(**seconds) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "environment": {"git_sha": "abc"},
        "results": {k: {"seconds": v} for k, v in seconds.items()},
    }


class TestComparator:
    def test_identity_has_no_regressions(self):
        rec = make_record(ax=0.005, gs=0.0004)
        assert not any(c.regressed for c in compare(rec, rec))

    def test_2x_slowdown_regresses(self):
        base = make_record(ax=0.005, gs=0.0004)
        slow = copy.deepcopy(base)
        for entry in slow["results"].values():
            entry["seconds"] *= 2.0
        comps = compare(base, slow, threshold=0.3)
        assert all(c.regressed for c in comps)
        assert all(c.ratio == pytest.approx(2.0) for c in comps)

    def test_slowdown_within_threshold_passes(self):
        base = make_record(ax=0.005)
        cand = make_record(ax=0.005 * 1.25)
        assert not compare(base, cand, threshold=0.3)[0].regressed

    def test_missing_candidate_entry_is_a_regression(self):
        comps = compare(make_record(ax=0.005, gs=0.0004), make_record(ax=0.005))
        gone = {c.name: c for c in comps}["gs"]
        assert gone.regressed and gone.candidate_seconds is None

    def test_new_candidate_entry_is_not_a_regression(self):
        comps = compare(make_record(ax=0.005), make_record(ax=0.005, new_kernel=0.1))
        new = {c.name: c for c in comps}["new_kernel"]
        assert not new.regressed and new.baseline_seconds is None

    def test_speedup_passes(self):
        comps = compare(make_record(ax=0.010), make_record(ax=0.002))
        assert not comps[0].regressed

    def _write(self, tmp_path, name, rec):
        path = tmp_path / name
        path.write_text(json.dumps(rec))
        return str(path)

    def test_main_exit_codes(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", make_record(ax=0.005))
        same = self._write(tmp_path, "same.json", make_record(ax=0.005))
        slow = self._write(tmp_path, "slow.json", make_record(ax=0.010))
        assert compare_main([base, same]) == 0
        assert compare_main([base, slow]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "no regressions" in out

    def test_lost_subkeys_are_a_regression(self):
        """Dropping the calls/bytes accounting from an entry fails the
        comparison even when the wall time improved."""
        base = make_record(gs=0.0004)
        base["results"]["gs"].update(calls=100, bytes=123456)
        cand = make_record(gs=0.0002)  # faster, but lost the sub-keys
        comps = compare(base, cand, threshold=0.3)
        assert comps[0].regressed
        assert comps[0].lost_subkeys == ["calls", "bytes"]

    def test_subkeys_preserved_passes(self):
        base = make_record(gs=0.0004)
        base["results"]["gs"].update(calls=100, bytes=123456)
        cand = make_record(gs=0.0004)
        cand["results"]["gs"].update(calls=90, bytes=120000)
        comps = compare(base, cand, threshold=0.3)
        assert not comps[0].regressed and comps[0].lost_subkeys == []

    def test_subkeys_new_in_candidate_are_fine(self):
        base = make_record(gs=0.0004)
        cand = make_record(gs=0.0004)
        cand["results"]["gs"].update(calls=90, bytes=120000)
        assert not compare(base, cand)[0].regressed

    def test_lost_subkey_failure_via_main(self, tmp_path, capsys):
        base = make_record(gs=0.0004)
        base["results"]["gs"].update(calls=100)
        b = self._write(tmp_path, "b.json", base)
        c = self._write(tmp_path, "c.json", make_record(gs=0.0002))
        assert compare_main([b, c]) == 1
        assert "lost sub-keys: calls" in capsys.readouterr().out

    def test_summary_table_printed_even_on_success(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", make_record(ax=0.005, gs=0.0004))
        cand = self._write(
            tmp_path, "cand.json", make_record(ax=0.005, gs=0.0004, extra=0.001)
        )
        assert compare_main([base, cand]) == 0
        out = capsys.readouterr().out
        # Every entry appears in the table with its verdict, and the
        # aggregate line reports counts and the worst ratio.
        assert "benchmark" in out and "verdict" in out
        assert "ax" in out and "gs" in out and "extra" in out
        assert "NEW" in out
        assert "3 entries, 0 regressed" in out
        assert "worst ratio" in out


class TestHarness:
    def test_environment_metadata(self):
        env = environment()
        for key in ("timestamp", "python", "numpy", "platform", "git_sha"):
            assert key in env

    def test_kernel_benchmarks_tiny(self):
        results = kernel_benchmarks(repeats=1, mesh=(2, 2, 2), lx=4)
        assert set(results) == {
            "ax_helmholtz",
            "gather_scatter",
            "dealias_convect",
            "fdm_solve",
            "hsmg_apply",
        }
        for rec in results.values():
            assert rec["seconds"] > 0
            assert rec["gbps"] > 0

    def test_step_benchmark_tiny(self):
        results = step_benchmark(n_steps=2, warmup=1, n=(2, 2, 2), lx=4)
        for phase in ("step", "advection", "pressure", "velocity", "temperature",
                      "gather_scatter"):
            assert phase in results
            assert results[phase]["seconds"] > 0
        # Phases are a decomposition of (most of) the step.
        phase_sum = sum(v["seconds"] for k, v in results.items() if k != "step")
        assert phase_sum < results["step"]["seconds"] * 1.5

    def test_write_tuning_artifacts(self, tmp_path):
        from repro.sem.autotune import DIMENSIONS, TuningTable

        table_path, report_path = write_tuning_artifacts(
            tmp_path, shapes=((2, 2),)
        )
        table = TuningTable.load(table_path)
        entry = table.lookup(2, 2)
        assert entry is not None
        for dim, pick in entry.selections.items():
            assert pick in DIMENSIONS[dim]
        report = json.loads(report_path.read_text())
        for key in ("hits", "misses", "entries", "hit_rate"):
            assert key in report

    def test_noop_tracer_overhead_under_2_percent(self):
        # The acceptance criterion for the observability layer.  Timing
        # noise can spoil one measurement; best-of-three attempts must
        # land under the bound.
        best = min(
            noop_tracer_overhead(repeats=3)["overhead_fraction"] for _ in range(3)
        )
        assert best < 0.02, f"no-op tracer overhead {best:.2%} >= 2%"


class TestCommittedBaselines:
    """The repository-root BENCH_*.json files are live and self-consistent."""

    @pytest.mark.parametrize("name", ["BENCH_kernels.json", "BENCH_step.json"])
    def test_baseline_exists_and_validates(self, name):
        path = REPO_ROOT / name
        assert path.exists(), f"{name} baseline missing from repository root"
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA_VERSION
        assert data["results"], "baseline has no results"
        for rec in data["results"].values():
            assert rec["seconds"] > 0

    @pytest.mark.parametrize("name", ["BENCH_kernels.json", "BENCH_step.json"])
    def test_comparator_passes_baseline_against_itself(self, name):
        data = json.loads((REPO_ROOT / name).read_text())
        assert not any(c.regressed for c in compare(data, data))

    def test_kernel_baseline_records_noop_overhead(self):
        data = json.loads((REPO_ROOT / "BENCH_kernels.json").read_text())
        assert data["noop_tracer_overhead"]["overhead_fraction"] < 0.02
