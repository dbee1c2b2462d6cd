"""Inline suppressions: ``# statcheck: ignore[RULE]`` comments.

Grammar (one comment per physical line)::

    def f(x, acc=[]):  # statcheck: ignore[api-hygiene] -- shared accumulator is the point
    # statcheck: ignore[determinism, api-hygiene] -- reason for the next line
    y = roll()
    z = frob()  # statcheck: ignore -- silences every rule on this line

A trailing comment suppresses matching findings on its own line; a
standalone comment line suppresses them on the next non-blank line (so
long statements can carry a suppression without breaking the line-length
budget).  Rule names are the kebab-case rule ids; the bare form without
brackets suppresses all rules.  Everything after ``--`` is a free-form
reason, which reviewers should insist on.
"""

from __future__ import annotations

import re

__all__ = ["Suppressions", "parse_suppressions", "SUPPRESS_RE"]

SUPPRESS_RE = re.compile(
    r"#\s*statcheck:\s*ignore"  # marker
    r"(?:\[(?P<rules>[A-Za-z0-9_\-, ]+)\])?"  # optional [rule, rule]
    r"(?:\s*--\s*(?P<reason>.*))?$"  # optional -- reason
)


class Suppressions:
    """Per-line suppression table for one module."""

    def __init__(self) -> None:
        # line (1-based) -> set of rule ids, or None meaning "all rules".
        self._by_line: dict[int, set[str] | None] = {}

    def add(self, line: int, rules: set[str] | None) -> None:
        existing = self._by_line.get(line, set())
        if rules is None or existing is None:
            self._by_line[line] = None
        else:
            self._by_line[line] = existing | rules

    def is_suppressed(self, line: int, rule: str) -> bool:
        if line not in self._by_line:
            return False
        rules = self._by_line[line]
        return rules is None or rule in rules

    def forward(self, src: int, dst: int) -> None:
        """Make the suppression at ``src`` (if any) also cover ``dst``.

        Used by the engine to attach suppressions written on decorator
        lines to the decorated ``def``/``class`` statement, where rules
        actually report their findings.
        """
        if src in self._by_line and src != dst:
            self.add(dst, self._by_line[src])

    def __len__(self) -> int:
        return len(self._by_line)


def parse_suppressions(lines: list[str]) -> Suppressions:
    """Scan source lines for suppression comments.

    ``lines`` is the module split into physical lines (no trailing
    newlines required).  Returns the per-line table with standalone
    comments already forwarded to the line they guard.
    """
    sup = Suppressions()
    pending: list[set[str] | None] = []
    for lineno, text in enumerate(lines, start=1):
        stripped = text.strip()
        m = SUPPRESS_RE.search(text)
        if m is not None:
            rules_text = m.group("rules")
            rules = (
                {r.strip().lower() for r in rules_text.split(",") if r.strip()}
                if rules_text
                else None
            )
            if stripped.startswith("#"):
                # Standalone comment: applies to the next code line.
                pending.append(rules)
            else:
                sup.add(lineno, rules)
            continue
        if not stripped or stripped.startswith("#"):
            continue  # blank/comment lines do not consume pending suppressions
        for rules in pending:
            sup.add(lineno, rules)
        pending = []
    return sup
