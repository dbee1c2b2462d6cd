"""resource-discipline: context-managed resources.

The in-situ pipeline and the resilience subsystem are the two places
where this codebase touches the outside world (files, worker threads,
queues, locks) *and* where errors are deliberately survived.  That
combination makes leaked handles expensive:

* an ``open()`` outside a ``with`` leaks its descriptor on the error
  paths the resilience layer exists to exercise;
* a ``lock.acquire()`` outside ``with`` deadlocks the pipeline when the
  guarded block raises.

Bare ``except:`` clauses are ruff's E722.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.engine import ModuleContext
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules.base import Rule

__all__ = ["ResourceDisciplineRule"]

#: Packages where resource handling is safety-critical.
RESOURCE_PACKAGES = ("insitu", "resilience", "core")


class ResourceDisciplineRule(Rule):
    name = "resource-discipline"
    severity = Severity.WARNING
    description = (
        "files and locks in repro.insitu / repro.resilience / repro.core must "
        "use context managers"
    )

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_package(*RESOURCE_PACKAGES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        with_exprs = _with_context_exprs(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in with_exprs:
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                yield ctx.finding(
                    self,
                    node,
                    "`open()` outside a `with` block leaks the descriptor "
                    "on error paths; use `with open(...) as f:`",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "acquire":
                yield ctx.finding(
                    self,
                    node,
                    "explicit `.acquire()`: prefer `with lock:` so the lock "
                    "is released when the guarded block raises",
                )


def _with_context_exprs(tree: ast.AST) -> set[int]:
    """ids of every node appearing inside a ``with`` item's context expression."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    ids.add(id(sub))
    return ids
