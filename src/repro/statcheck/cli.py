"""Command-line interface: ``python -m repro.statcheck src/``.

Exit codes: 0 clean (no finding at or above ``--fail-on``), 1 failing
findings, 2 usage or parse errors.  Findings are silenced only by inline
``# statcheck: ignore[RULE] -- reason`` comments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.statcheck.engine import check_paths
from repro.statcheck.finding import Severity
from repro.statcheck.rules import ALL_RULES, get_rules

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statcheck",
        description="Domain-invariant static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, default=[Path("src")],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--fail-on", default="warning", choices=[s.name.lower() for s in Severity],
        help="minimum severity of findings that fails the run (default: warning)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format (default: text)",
    )
    parser.add_argument("--list-rules", action="store_true", help="list rules and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.name:<22s} {cls.severity.name.lower():<8s} {cls.description}", file=out)
        return 0

    try:
        rules = get_rules(args.select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings, errors = check_paths(args.paths, rules)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)

    threshold = Severity.parse(args.fail_on)
    failing = [f for f in findings if f.severity >= threshold]

    if args.format == "json":
        json.dump(
            {"findings": [f.to_json() for f in findings], "failing": len(failing)},
            out,
            indent=2,
        )
        print(file=out)
    else:
        for f in findings:
            print(f.render(), file=out)
        print(
            f"{len(findings)} finding(s), {len(failing)} at/above "
            f"--fail-on={threshold.name.lower()}",
            file=out,
        )

    if errors:
        return 2
    return 1 if failing else 0
