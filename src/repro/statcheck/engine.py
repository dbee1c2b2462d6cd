"""The statcheck engine: walk files, parse, run rules, apply suppressions.

The engine is deliberately small: rules do the domain work, the engine
owns everything generic -- file discovery, AST parsing, module-name
derivation from the ``src`` layout, suppression filtering and stable
ordering of the output.  Each file is checked on its own; no rule sees
more than one module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.statcheck.finding import Finding
from repro.statcheck.suppress import Suppressions, parse_suppressions

if TYPE_CHECKING:  # pragma: no cover
    from repro.statcheck.rules.base import Rule

__all__ = ["ModuleContext", "check_paths", "iter_python_files"]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one module."""

    relpath: str  # repo-relative POSIX path used in findings
    module: str  # dotted module name ("repro.sem.mesh"); best effort
    tree: ast.AST
    suppressions: Suppressions

    @classmethod
    def from_path(cls, path: Path, root: Path | None = None) -> "ModuleContext":
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        try:
            rel = path.resolve().relative_to((root or Path.cwd()).resolve())
        except ValueError:
            rel = path
        suppressions = parse_suppressions(source.splitlines())
        # A suppression written on (or immediately above) a decorator line
        # must cover the decorated statement: findings on a decorated
        # ``def`` are reported at the ``def`` line, not the ``@`` line.
        for node in ast.walk(tree):
            decorators = getattr(node, "decorator_list", None)
            if decorators:
                for line in range(decorators[0].lineno, node.lineno):
                    suppressions.forward(line, node.lineno)
        return cls(
            relpath=rel.as_posix(),
            module=_module_name(path),
            tree=tree,
            suppressions=suppressions,
        )

    def in_package(self, *packages: str) -> bool:
        """True when the module lives under any ``repro.<package>``."""
        parts = self.module.split(".")
        return len(parts) >= 2 and parts[0] == "repro" and parts[1] in packages

    def finding(
        self, rule: "Rule", node: ast.AST, message: str, severity=None
    ) -> Finding:
        """Build a finding anchored at ``node`` (severity defaults to the rule's)."""
        return Finding(
            rule=rule.name,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity if severity is not None else rule.severity,
        )


def _module_name(path: Path) -> str:
    """Dotted module name, assuming the conventional ``src/<pkg>/...`` layout."""
    parts = list(path.resolve().parts)
    name = path.stem
    for anchor in ("src",):
        if anchor in parts:
            sub = parts[parts.index(anchor) + 1 :]
            if sub:
                mod = [*sub[:-1], name] if name != "__init__" else sub[:-1]
                return ".".join(mod)
    # Fallback: best effort from the trailing path components.
    return name


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` (files are passed through)."""
    for p in paths:
        p = Path(p)
        if p.is_file() and p.suffix == ".py":
            yield p
        elif p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    yield sub


def check_paths(
    paths: Iterable[Path],
    rules: Iterable["Rule"],
    root: Path | None = None,
) -> tuple[list[Finding], list[str]]:
    """Run ``rules`` over every Python file under ``paths``.

    Returns ``(findings, errors)``: findings sorted by location, and a list
    of human-readable messages for files that failed to parse (a syntax
    error in checked code is reported, not raised -- the linter must not
    die on the code it lints).
    """
    rules = list(rules)
    findings: list[Finding] = []
    errors: list[str] = []
    for path in iter_python_files(paths):
        try:
            ctx = ModuleContext.from_path(path, root=root)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append(f"{path}: {type(exc).__name__}: {exc}")
            continue
        for rule in rules:
            if rule.applies(ctx):
                findings.extend(
                    f
                    for f in rule.check(ctx)
                    if not ctx.suppressions.is_suppressed(f.line, f.rule)
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, errors
