"""Inline ``# statcheck: ignore[...]`` suppression grammar and engine wiring."""

from pathlib import Path

from repro.statcheck import check_paths, get_rules
from repro.statcheck.suppress import parse_suppressions

FIXTURES = Path(__file__).parent / "fixtures"


class TestGrammar:
    def test_trailing_comment_suppresses_own_line(self):
        sup = parse_suppressions(["x = 1  # statcheck: ignore[span-hygiene]"])
        assert sup.is_suppressed(1, "span-hygiene")
        assert not sup.is_suppressed(1, "determinism")
        assert not sup.is_suppressed(2, "span-hygiene")

    def test_multiple_rules_and_reason(self):
        sup = parse_suppressions(
            ["y = 2  # statcheck: ignore[determinism, api-hygiene] -- fixture keep"]
        )
        assert sup.is_suppressed(1, "determinism")
        assert sup.is_suppressed(1, "api-hygiene")
        assert not sup.is_suppressed(1, "span-hygiene")

    def test_bare_ignore_suppresses_all_rules(self):
        sup = parse_suppressions(["z = 3  # statcheck: ignore"])
        assert sup.is_suppressed(1, "span-hygiene")
        assert sup.is_suppressed(1, "anything-at-all")

    def test_standalone_comment_forwards_to_next_code_line(self):
        sup = parse_suppressions(
            [
                "# statcheck: ignore[determinism] -- clock injected upstream",
                "",
                "# another comment",
                "t = clock()",
            ]
        )
        assert sup.is_suppressed(4, "determinism")
        assert not sup.is_suppressed(1, "determinism")

    def test_unrelated_comments_do_not_suppress(self):
        sup = parse_suppressions(["x = 1  # just a comment", "y = 2"])
        assert not sup.is_suppressed(1, "span-hygiene")
        assert not sup.is_suppressed(2, "span-hygiene")


class TestEngineIntegration:
    def test_suppressed_fixture_line_not_reported(self):
        path = FIXTURES / "src/repro/core/suppress_case.py"
        findings, errors = check_paths([path], get_rules(["span-hygiene"]))
        assert errors == []
        # Line 13 (the third unregistered span) carries an ignore; lines 9 and 11 do not.
        assert [f.line for f in findings] == [9, 11]

    def test_suppression_is_rule_scoped(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "core" / "scoped.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import time\n"
            "def f(tracer):\n"
            "    t = time.time()  # statcheck: ignore[span-hygiene] -- wrong rule\n"
            "    with tracer.span('made_up'):  # statcheck: ignore[span-hygiene] -- right rule\n"
            "        pass\n"
            "    return t\n"
        )
        findings, _ = check_paths([mod], get_rules(None))
        rules = sorted(f.rule for f in findings)
        # The determinism finding survives its mis-scoped ignore; the
        # span-hygiene finding on the span line is suppressed.
        assert rules == ["determinism"]


class TestDecoratorForwarding:
    """A suppression on a decorator line must cover the decorated def:
    findings (shadowed params, ...) are reported at the
    ``def`` line, not the ``@`` line the author annotated."""

    def test_forward_copies_the_entry(self):
        sup = parse_suppressions(
            ["@cached  # statcheck: ignore[api-hygiene] -- registry pattern"]
        )
        assert sup.is_suppressed(1, "api-hygiene")
        assert not sup.is_suppressed(3, "api-hygiene")
        sup.forward(1, 3)
        assert sup.is_suppressed(3, "api-hygiene")
        # Forwarding from a line with no suppression is a no-op.
        sup.forward(2, 5)
        assert not sup.is_suppressed(5, "api-hygiene")

    def test_ignore_on_decorator_line_suppresses_the_def(self, tmp_path):
        mod = tmp_path / "deco.py"
        mod.write_text(
            "@register  # statcheck: ignore[api-hygiene] -- fixture: intentional\n"
            "def f(list=None):\n"
            "    return list\n"
        )
        findings, errors = check_paths([mod], get_rules(["api-hygiene"]))
        assert errors == []
        assert findings == []

    def test_multiline_decorator_stack_is_covered(self, tmp_path):
        # The ignore sits on the *first* decorator; the def follows several
        # lines later.  Every line between the first decorator and the def
        # forwards, so stacked decorators behave like a single one.
        mod = tmp_path / "deco_stack.py"
        mod.write_text(
            "@outer  # statcheck: ignore[api-hygiene] -- fixture: intentional\n"
            "@inner(\n"
            "    option=1,\n"
            ")\n"
            "def f(list=None):\n"
            "    return list\n"
        )
        findings, errors = check_paths([mod], get_rules(["api-hygiene"]))
        assert errors == []
        assert findings == []

    def test_undecorated_def_is_still_reported(self, tmp_path):
        mod = tmp_path / "plain.py"
        mod.write_text(
            "def f(list=None):\n"
            "    return list\n"
        )
        findings, _ = check_paths([mod], get_rules(["api-hygiene"]))
        assert [f.line for f in findings] == [1]

    def test_decorator_without_ignore_does_not_suppress(self, tmp_path):
        mod = tmp_path / "deco_plain.py"
        mod.write_text(
            "@register\n"
            "def f(list=None):\n"
            "    return list\n"
        )
        findings, _ = check_paths([mod], get_rules(["api-hygiene"]))
        assert [f.line for f in findings] == [2]
