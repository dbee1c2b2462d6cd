"""api-hygiene: shadowed builtins, unreachable code.

Classic Python footguns that are cheap to catch statically and expensive
to debug in a numerics codebase: a parameter named ``max`` turns the next
``max(...)`` three lines down into a type error, and statements after an
unconditional ``return``/``raise`` are dead weight that reads as live
logic.  Mutable default arguments are ruff's B006.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.engine import ModuleContext
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules.base import Rule

__all__ = ["ApiHygieneRule"]

#: Builtins whose shadowing in function scope is flagged.  Chosen for the
#: ones numerics code actually calls; deliberately excludes rarely-used
#: builtins so domain vocabulary ("bin", "iter" as a count) stays usable.
SHADOWED_BUILTINS = {
    "list", "dict", "set", "tuple", "str", "int", "float", "bool", "bytes",
    "sum", "max", "min", "abs", "round", "len", "range", "zip", "map",
    "filter", "sorted", "all", "any", "type", "input", "id", "vars", "next",
    "object", "print", "open", "slice",
}

_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


class ApiHygieneRule(Rule):
    name = "api-hygiene"
    severity = Severity.WARNING
    description = (
        "no shadowed builtins in function scope or unreachable statements "
        "after return/raise"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_shadowing(ctx, node)
            yield from self._check_unreachable(ctx, node)

    # -- shadowed builtins ---------------------------------------------------

    def _check_shadowing(self, ctx: ModuleContext, fn) -> Iterator[Finding]:
        args = [
            *fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs,
            *([fn.args.vararg] if fn.args.vararg else []),
            *([fn.args.kwarg] if fn.args.kwarg else []),
        ]
        for a in args:
            if a.arg in SHADOWED_BUILTINS:
                yield ctx.finding(
                    self, a, f"parameter `{a.arg}` shadows a builtin in `{fn.name}()`"
                )
        for stmt in _walk_own_scope(fn):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            elif isinstance(stmt, ast.For):
                targets = [stmt.target]
            for t in targets:
                for name in ast.walk(t):
                    if (
                        isinstance(name, ast.Name)
                        and isinstance(name.ctx, ast.Store)
                        and name.id in SHADOWED_BUILTINS
                    ):
                        yield ctx.finding(
                            self,
                            name,
                            f"assignment to `{name.id}` shadows a builtin "
                            f"in `{fn.name}()`",
                        )

    # -- unreachable statements ----------------------------------------------

    def _check_unreachable(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        for body in _statement_blocks(node):
            for i, stmt in enumerate(body[:-1]):
                if isinstance(stmt, _TERMINATORS):
                    nxt = body[i + 1]
                    kw = type(stmt).__name__.lower()
                    yield ctx.finding(
                        self,
                        nxt,
                        f"unreachable statement after `{kw}`",
                        severity=Severity.ERROR,
                    )
                    break  # one report per block is enough


def _walk_own_scope(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue  # nested scopes report through their own visit
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _statement_blocks(node: ast.AST) -> Iterator[list[ast.stmt]]:
    for field in ("body", "orelse", "finalbody"):
        block = getattr(node, field, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
