"""CLI behaviour: exit codes, baseline gating, output formats."""

import json
import shutil
from pathlib import Path

import pytest

from repro.statcheck.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURES_A = Path(__file__).parent / "fixtures_analyzers"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestExitCodes:
    def test_fixture_tree_without_baseline_fails(self, capsys):
        assert main([str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "new" in out and "[span-hygiene]" in out

    def test_write_then_gate_is_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(FIXTURES), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert main([str(FIXTURES), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out

    def test_new_violation_breaks_the_gate(self, tmp_path, capsys):
        """The acceptance criterion: a fresh violation exits nonzero even
        with every pre-existing finding baselined."""
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES, tree)
        baseline = tmp_path / "baseline.json"
        assert main([str(tree), "--baseline", str(baseline), "--write-baseline"]) == 0

        target = tree / "src" / "repro" / "core" / "suppress_case.py"
        target.write_text(
            target.read_text()
            + "\n\ndef fresh(tracer):\n"
            + '    with tracer.span("fresh_phase"):\n'
            + "        pass\n"
        )
        assert main([str(tree), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "fresh_phase" in out and "1 new" in out

    def test_fail_on_error_ignores_warnings(self, tmp_path):
        src = FIXTURES / "src/repro/core/suppress_case.py"
        # span-hygiene findings are warnings: with --fail-on=error they
        # are advisory and the run passes.
        assert main([str(src), "--fail-on", "error"]) == 0
        assert main([str(src), "--fail-on", "warning"]) == 1

    def test_select_limits_rules(self, capsys):
        assert main([str(FIXTURES), "--select", "span-hygiene"]) == 1
        out = capsys.readouterr().out
        assert "span-hygiene" in out and "api-hygiene" not in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main([str(FIXTURES), "--select", "bogus"]) == 2


class TestAnalysisFlag:
    def test_analyzers_off_by_default(self, capsys):
        # The analyzer fixture tree is rule-clean: without --analysis the
        # run passes and finds nothing.
        assert main([str(FIXTURES_A)]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_analysis_all_runs_every_analyzer(self, capsys):
        assert main([str(FIXTURES_A), "--analysis", "all"]) == 1
        assert "[hot-loop-allocation]" in capsys.readouterr().out

    def test_single_analyzer_selection(self, capsys):
        assert main([str(FIXTURES_A), "--analysis", "allocations"]) == 1
        assert "[hot-loop-allocation]" in capsys.readouterr().out
        with pytest.raises(SystemExit):  # the deleted analyzer is no choice
            main([str(FIXTURES_A), "--analysis", "collectives"])

    def test_analysis_is_repeatable(self, capsys):
        assert main(
            [str(FIXTURES_A), "--analysis", "allocations", "--analysis", "all"]
        ) == 1
        assert "[hot-loop-allocation]" in capsys.readouterr().out

    def test_analyzer_findings_respect_the_baseline_gate(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(
            [str(FIXTURES_A), "--analysis", "all", "--baseline", str(baseline),
             "--write-baseline"]
        ) == 0
        assert main(
            [str(FIXTURES_A), "--analysis", "all", "--baseline", str(baseline)]
        ) == 0
        assert "0 new" in capsys.readouterr().out


class TestOutput:
    def test_json_format(self, capsys):
        assert main([str(FIXTURES), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["failing"] == len(data["new"]) == 13
        assert data["baselined"] == [] and data["stale_fingerprints"] == []
        sample = data["new"][0]
        assert {"rule", "path", "line", "severity", "message"} <= set(sample)

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "determinism",
            "span-hygiene",
            "resource-discipline",
            "api-hygiene",
        ):
            assert rule in out

    def test_list_rules_includes_analyzers(self, capsys):
        assert main(["--list-rules"]) == 0
        assert "hot-loop-allocation" in capsys.readouterr().out

    def test_stale_note_printed(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES, tree)
        baseline = tmp_path / "baseline.json"
        assert main([str(tree), "--baseline", str(baseline), "--write-baseline"]) == 0
        # Fix the determinism fixture outright; its entries go stale.
        (tree / "src" / "repro" / "core" / "determinism_case.py").write_text(
            '"""Fixed fixture."""\n'
        )
        assert main([str(tree), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "no longer occur" in out


class TestMeta:
    """The linter's own verdict on the real tree: the committed baseline
    covers everything, so the gate the CI runs is green at HEAD."""

    def test_src_tree_has_zero_new_findings(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        baseline = REPO_ROOT / "statcheck_baseline.json"
        assert baseline.exists(), "statcheck_baseline.json must be committed"
        assert main(["src", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out

    def test_statcheck_package_is_clean_without_baseline(self):
        # The linter holds itself to its own rules, no baseline needed.
        assert main([str(REPO_ROOT / "src" / "repro" / "statcheck")]) == 0

    def test_src_tree_is_gate_clean_under_full_analysis(self, capsys, monkeypatch):
        # The acceptance criterion: rules AND both interprocedural
        # analyzers pass on HEAD with the committed (empty) baseline.
        monkeypatch.chdir(REPO_ROOT)
        baseline = REPO_ROOT / "statcheck_baseline.json"
        assert main(
            ["src", "--analysis", "all", "--baseline", str(baseline)]
        ) == 0
        assert "0 new" in capsys.readouterr().out
