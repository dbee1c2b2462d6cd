"""Rule base class and AST helpers shared by the domain rules."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.engine import ModuleContext
from repro.statcheck.finding import Finding, Severity

__all__ = ["Rule", "attr_chain"]


class Rule:
    """One named check over a parsed module.

    Subclasses set :attr:`name` (the kebab-case id used in suppressions),
    :attr:`severity` and implement :meth:`check`; they may narrow
    :meth:`applies` to scope themselves to specific packages.
    """

    name: str = ""
    severity: Severity = Severity.WARNING
    description: str = ""

    def applies(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


def attr_chain(node: ast.AST) -> str | None:
    """Dotted name of an attribute/name chain (``np.random.rand``), else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None
