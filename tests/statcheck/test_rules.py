"""Per-rule behaviour of the statcheck linter, driven by committed fixtures.

The fixture tree mirrors the ``src/repro/<pkg>/`` layout so package-scoped
rules (resource-discipline) apply to fixture modules the same way they
apply to the real tree.
"""

from pathlib import Path

from repro.statcheck import check_paths, get_rules
from repro.statcheck.finding import Severity

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(name, path):
    findings, errors = check_paths([path], get_rules([name]))
    assert errors == []
    return findings


class TestDeterminism:
    def test_flags_rng_and_wall_clock(self):
        findings = run_rule(
            "determinism", FIXTURES / "src/repro/core/determinism_case.py"
        )
        assert [f.line for f in findings] == [9, 10, 11]
        assert all(f.severity == Severity.ERROR for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "np.random.rand" in messages
        assert "default_rng" in messages
        assert "time.time" in messages

    def test_seeded_generator_is_allowed(self):
        findings = run_rule(
            "determinism", FIXTURES / "src/repro/core/determinism_case.py"
        )
        assert all(f.line != 12 for f in findings)  # default_rng(1234)


class TestSpanHygiene:
    def test_flags_unregistered_span_only(self):
        findings = run_rule("span-hygiene", FIXTURES / "src/repro/core/span_case.py")
        assert [f.line for f in findings] == [7]
        assert "made_up_phase" in findings[0].message

    def test_resilience_family_is_registered(self):
        # The resilience event log's instants (resilience.*) and the
        # divergence guard's sim.divergence are part of the registry: a
        # module using only them is clean.
        findings = run_rule(
            "span-hygiene", FIXTURES / "src/repro/core/fleet_span_case.py"
        )
        assert findings == []

    def test_verify_family_is_registered(self):
        # The verification subsystem's spans (verify.*) are a registered
        # family: a module using only them is clean.
        findings = run_rule(
            "span-hygiene", FIXTURES / "src/repro/core/verify_span_case.py"
        )
        assert findings == []

    def test_chaos_family_is_registered(self):
        # The chaos harness's spans (chaos.*) are a registered family: a
        # module using only them is clean.
        findings = run_rule(
            "span-hygiene", FIXTURES / "src/repro/core/chaos_span_case.py"
        )
        assert findings == []

    def test_krylov_and_sample_families_are_registered(self):
        # The solver spans (krylov.*) and the per-step counter samples
        # (sim.*) are registered families: a module using only them is
        # clean.
        findings = run_rule(
            "span-hygiene", FIXTURES / "src/repro/core/topo_span_case.py"
        )
        assert findings == []

    def test_samples_and_events_share_the_span_registry(self, tmp_path):
        # One registry for every name a trace carries: a counter sample or
        # an event outside it is flagged like a span, and a family with no
        # emitter left (flight.*, cache.*) no longer passes.
        path = tmp_path / "names.py"
        path.write_text(
            "def run(tracer):\n"
            "    tracer.sample('sim.cfl', 0.5)\n"
            "    tracer.sample('queue_depth', 3)\n"
            "    tracer.event('flight.divergence')\n"
            "    tracer.event('cache.build')\n"
        )
        findings = run_rule("span-hygiene", path)
        assert [f.line for f in findings] == [3, 4, 5]


class TestResourceDiscipline:
    def test_flags_raw_open(self):
        findings = run_rule(
            "resource-discipline", FIXTURES / "src/repro/insitu/resource_case.py"
        )
        assert [(f.line, f.severity) for f in findings] == [
            (5, Severity.WARNING),  # open() outside with
        ]


class TestApiHygiene:
    def test_flags_shadowing_unreachable(self):
        findings = run_rule("api-hygiene", FIXTURES / "src/repro/api_case.py")
        by_line = {f.line: f for f in findings}
        assert "`list`" in by_line[4].message  # shadowed parameter
        assert "`sum`" in by_line[5].message  # shadowed assignment
        assert by_line[13].severity == Severity.ERROR  # unreachable
        assert "unreachable" in by_line[13].message


class TestEngine:
    def test_all_rules_over_fixture_tree(self):
        findings, errors = check_paths([FIXTURES], get_rules(None))
        assert errors == []
        per_rule = {}
        for f in findings:
            per_rule[f.rule] = per_rule.get(f.rule, 0) + 1
        assert per_rule == {
            "api-hygiene": 4,
            "determinism": 3,
            "resource-discipline": 1,
            "span-hygiene": 3,
        }
        # Stable ordering: sorted by (path, line, col, rule).
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings, errors = check_paths([bad], get_rules(None))
        assert findings == []
        assert len(errors) == 1 and "SyntaxError" in errors[0]

    def test_unknown_rule_selection_rejected(self):
        try:
            get_rules(["no-such-rule"])
        except ValueError as exc:
            assert "no-such-rule" in str(exc)
        else:
            raise AssertionError("expected ValueError for unknown rule")
