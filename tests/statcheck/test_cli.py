"""CLI behaviour: exit codes, severity gating, output formats."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.statcheck.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestExitCodes:
    def test_fixture_tree_without_baseline_fails(self, capsys):
        assert main([str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "11 finding(s)" in out and "[span-hygiene]" in out

    def test_new_violation_breaks_the_gate(self, tmp_path, capsys):
        """The acceptance criterion: a fresh violation in a clean tree
        exits nonzero and names itself."""
        tree = tmp_path / "src" / "repro" / "core"
        tree.mkdir(parents=True)
        target = tree / "fleet_span_case.py"
        shutil.copy(FIXTURES / "src/repro/core/fleet_span_case.py", target)
        assert main([str(tmp_path)]) == 0

        target.write_text(
            target.read_text()
            + "\n\ndef fresh(tracer):\n"
            + '    with tracer.span("fresh_phase"):\n'
            + "        pass\n"
        )
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "fresh_phase" in out and "1 finding(s)" in out

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


class TestOutput:
    def test_json_format(self, capsys):
        assert main([str(FIXTURES), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["failing"] == len(data["findings"]) == 11
        sample = data["findings"][0]
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


class TestMeta:
    """The linter's own verdict on the real tree: the gate CI runs is
    green at HEAD."""

    def test_src_tree_has_zero_new_findings(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_statcheck_package_is_clean_without_baseline(self):
        # The linter holds itself to its own rules.
        assert main([str(REPO_ROOT / "src" / "repro" / "statcheck")]) == 0

    def test_src_tree_is_gate_clean_under_full_analysis(self, capsys, monkeypatch):
        # Every rule named explicitly, warnings failing the run: HEAD
        # carries no finding of any severity.
        monkeypatch.chdir(REPO_ROOT)
        argv = ["src", "--fail-on", "warning", "--format", "json"]
        for rule in ("determinism", "span-hygiene", "resource-discipline", "api-hygiene"):
            argv += ["--select", rule]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["findings"] == [] and data["failing"] == 0

    def test_solver_does_not_import_the_linter(self):
        code = (
            "import sys, repro.core\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.statcheck')))"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "[]"
