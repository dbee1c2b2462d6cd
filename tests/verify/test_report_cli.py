"""Report assembly and the ``python -m repro.verify`` CLI plumbing.

The expensive sweeps are covered by the dedicated convergence tests; here
the report/CLI layer is exercised with small synthetic studies plus one
real (tiny) end-to-end invocation of the CLI main with a stubbed suite.
"""

import json

import pytest

from repro.verify import cli
from repro.verify.convergence import ConvergenceStudy, StudyResult
from repro.verify.report import VerificationReport


def synthetic_study(passed: bool) -> StudyResult:
    return StudyResult(
        name="synthetic",
        kind="h",
        parameters=[0.5, 0.25],
        errors=[1e-2, 2.5e-3],
        observed_rate=2.0,
        expected_rate=1.8 if passed else 3.0,
        passed=passed,
    )


class TestVerificationReport:
    def test_passed_requires_every_component(self):
        assert VerificationReport(studies=[synthetic_study(True)]).passed
        mixed = VerificationReport(studies=[synthetic_study(True), synthetic_study(False)])
        assert not mixed.passed

    def test_json_round_trip(self):
        report = VerificationReport(studies=[synthetic_study(True)], extra={"suite": "quick"})
        rec = json.loads(report.to_json())
        assert rec["passed"] is True
        assert rec["studies"][0]["observed_rate"] == 2.0
        assert rec["extra"] == {"suite": "quick"}

    def test_text_table_contains_verdicts(self):
        report = VerificationReport(studies=[synthetic_study(True), synthetic_study(False)])
        table = report.text_table()
        assert "synthetic" in table
        assert "PASS" in table and "FAIL" in table
        assert table.strip().endswith("overall: FAIL")


def tiny_report(quick: bool = True, tracer=None) -> VerificationReport:
    """A real-but-small suite: one study on a closed-form error."""
    study = ConvergenceStudy("tiny-h", lambda h: 0.1 * h**2, kind="h", tracer=tracer)
    report = VerificationReport()
    report.studies.append(study.run([0.5, 0.25], expected_rate=1.8))
    return report


class TestCli:
    def test_main_writes_json_and_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_report", tiny_report)
        out = tmp_path / "verify.json"
        rc = cli.main(["--quick", "--out", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["passed"] is True
        assert rec["studies"][0]["name"] == "tiny-h"
        stdout = capsys.readouterr().out
        assert "overall: PASS" in stdout

    def test_main_exit_code_reflects_failure(self, monkeypatch, capsys):
        def failing_report(quick: bool = True, tracer=None) -> VerificationReport:
            return VerificationReport(studies=[synthetic_study(False)])

        monkeypatch.setattr(cli, "build_report", failing_report)
        assert cli.main(["--quick"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_tracer_spans_use_registered_family(self):
        """verify.* spans must be in the phase registry (span hygiene)."""
        from repro.observability.phases import is_registered_metric, is_registered_span

        for name in ("verify.study", "verify.case"):
            assert is_registered_span(name)
        assert is_registered_metric("verify.studies_passed")

    def test_spans_are_recorded(self):
        from repro.observability.tracer import Tracer

        tracer = Tracer()
        tiny_report(tracer=tracer)
        names = [s.name for s in tracer.walk()]
        assert "verify.study" in names
        assert "verify.case" in names


@pytest.mark.parametrize("flag", ["--quick"])
def test_cli_parser_accepts_flags(flag, monkeypatch):
    monkeypatch.setattr(cli, "build_report", tiny_report)
    assert cli.main([flag]) in (0, 1)
