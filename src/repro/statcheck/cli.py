"""Command-line interface: ``python -m repro.statcheck src/``.

Exit codes: 0 clean (no non-baselined findings at or above ``--fail-on``),
1 new findings, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.statcheck.analyzers import ALL_ANALYZERS, get_analyzers
from repro.statcheck.baseline import Baseline, partition_findings
from repro.statcheck.engine import check_project
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
        "--baseline", type=Path, default=None,
        help="baseline JSON; baselined findings are reported but do not fail",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to --baseline (or stdout) and exit 0",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--analysis", action="append", default=None,
        choices=[*ALL_ANALYZERS, "all"],
        help="also run the interprocedural analyzer ('all' is the same selection)",
    )
    parser.add_argument(
        "--fail-on", default="warning", choices=[s.name.lower() for s in Severity],
        help="minimum severity of NEW findings that fails the run (default: warning)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format (default: text)",
    )
    parser.add_argument(
        "--show-baselined", action="store_true",
        help="also print findings covered by the baseline",
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
        for acls in ALL_ANALYZERS.values():
            print(
                f"{acls.name:<22s} {acls.severity.name.lower():<8s} {acls.description}",
                file=out,
            )
        return 0

    try:
        rules = get_rules(args.select)
        analyzers = get_analyzers(args.analysis)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings, errors = check_project(args.paths, rules, analyzers)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)

    if args.write_baseline:
        baseline = Baseline.from_findings(findings)
        if args.baseline is not None:
            baseline.write(args.baseline)
            print(
                f"wrote baseline with {len(baseline)} finding(s) to {args.baseline}",
                file=out,
            )
        else:
            json.dump({f.fingerprint: f.to_json() for f in findings}, out, indent=2)
            print(file=out)
        return 0 if not errors else 2

    baseline = Baseline.load(args.baseline) if args.baseline else Baseline.empty()
    new, baselined, stale = partition_findings(findings, baseline)
    threshold = Severity.parse(args.fail_on)
    failing = [f for f in new if f.severity >= threshold]
    advisory = [f for f in new if f.severity < threshold]

    if args.format == "json":
        json.dump(
            {
                "new": [f.to_json() for f in new],
                "baselined": [f.to_json() for f in baselined],
                "stale_fingerprints": stale,
                "failing": len(failing),
            },
            out,
            indent=2,
        )
        print(file=out)
    else:
        for f in new:
            print(f.render(), file=out)
        if args.show_baselined:
            for f in baselined:
                print(f"{f.render()}  (baselined)", file=out)
        if stale:
            print(
                f"note: {len(stale)} baselined finding(s) no longer occur; "
                f"regenerate the baseline to ratchet it down",
                file=out,
            )
        summary = (
            f"{len(findings)} finding(s): {len(new)} new "
            f"({len(failing)} at/above --fail-on={threshold.name.lower()}), "
            f"{len(baselined)} baselined"
        )
        print(summary, file=out)

    if errors:
        return 2
    if failing:
        return 1
    if advisory:
        print(
            f"note: {len(advisory)} new finding(s) below the fail threshold",
            file=out,
        )
    return 0
