"""Baseline round-trips: write, load, partition, count semantics."""

from pathlib import Path

from repro.statcheck import Baseline, check_paths, get_rules, partition_findings

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_findings():
    findings, errors = check_paths([FIXTURES], get_rules(None))
    assert errors == []
    return findings


class TestRoundTrip:
    def test_write_load_partition_all_baselined(self, tmp_path):
        findings = fixture_findings()
        baseline = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        baseline.write(path)

        loaded = Baseline.load(path)
        assert len(loaded) == len(findings)
        new, baselined, stale = partition_findings(findings, loaded)
        assert new == []
        assert len(baselined) == len(findings)
        assert stale == []

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": {}}')
        try:
            Baseline.load(path)
        except ValueError as exc:
            assert "version" in str(exc)
        else:
            raise AssertionError("expected ValueError for wrong version")

    def test_fingerprint_survives_line_drift(self, tmp_path):
        """Moving a finding to another line keeps it baselined (count-based).

        Fingerprints hash (path, rule, stripped source line) -- NOT the line
        number -- so the baseline is built and re-checked against the same
        relative path under ``root=tmp_path``.
        """
        src = FIXTURES / "src/repro/core/suppress_case.py"
        copy = tmp_path / "src" / "repro" / "core" / "suppress_case.py"
        copy.parent.mkdir(parents=True)
        copy.write_text(src.read_text())
        baseline = Baseline.from_findings(
            check_paths([copy], get_rules(["span-hygiene"]), root=tmp_path)[0]
        )

        copy.write_text("\n\n\n" + src.read_text())
        drifted = check_paths([copy], get_rules(["span-hygiene"]), root=tmp_path)[0]
        assert [f.line for f in drifted] == [12, 14]  # moved by three lines

        new, baselined, stale = partition_findings(drifted, baseline)
        assert new == [] and len(baselined) == 2 and stale == []


class TestCountSemantics:
    def test_duplicated_violation_exceeds_allowance(self, tmp_path):
        """A second copy of a baselined line is NEW even though the
        fingerprint is known -- the gate is count-based."""
        src = FIXTURES / "src/repro/core/suppress_case.py"
        copy = tmp_path / "src" / "repro" / "core" / "suppress_case.py"
        copy.parent.mkdir(parents=True)
        text = src.read_text()
        copy.write_text(text)
        baseline = Baseline.from_findings(
            check_paths([copy], get_rules(["span-hygiene"]), root=tmp_path)[0]
        )

        dup = (
            '    with tracer.span("warmup_phase"):  # finding 1: not in the phase registry\n'
            "        pass\n"
        )
        assert dup in text
        copy.write_text(text.replace(dup, dup + dup))
        findings = check_paths([copy], get_rules(["span-hygiene"]), root=tmp_path)[0]
        assert len(findings) == 3

        new, baselined, stale = partition_findings(findings, baseline)
        assert len(new) == 1 and len(baselined) == 2 and stale == []

    def test_fixed_violation_reported_stale(self):
        findings = fixture_findings()
        baseline = Baseline.from_findings(findings)
        kept = [f for f in findings if f.rule != "determinism"]
        new, baselined, stale = partition_findings(kept, baseline)
        assert new == []
        assert len(baselined) == len(kept)
        assert len(stale) == 3  # the three determinism fingerprints no longer occur
