"""CLI: run the committed chaos campaign and print the survival report.

``python -m repro.resilience.chaos`` runs the default 8-scenario
campaign; exit status is nonzero when any scenario fails, so the command
doubles as the CI ``chaos-smoke`` gate.  ``--trace PATH`` writes the
campaign's Chrome trace: one ``chaos.scenario`` span per scenario with its
``resilience.*`` events inside.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.observability.export import write_chrome_trace
from repro.resilience.chaos.harness import ChaosHarness
from repro.resilience.chaos.report import render_report, write_json_report
from repro.resilience.chaos.scenarios import default_campaign


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Run the seeded chaos campaign against the real step on simulated ranks.",
    )
    parser.add_argument("--seed", type=int, default=2026, help="campaign master seed")
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="time steps per scenario run (default: each scenario's own)",
    )
    parser.add_argument(
        "--tol", type=float, default=1.0e-8, help="|nu - nu_free| survival bar"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="also write the JSON report here"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="also write the campaign's Chrome trace here",
    )
    parser.add_argument(
        "--only",
        metavar="NAME",
        action="append",
        default=None,
        help="run only the named scenario(s); repeatable",
    )
    args = parser.parse_args(argv)

    scenarios = default_campaign()
    if args.only:
        wanted = set(args.only)
        unknown = wanted - {s.name for s in scenarios}
        if unknown:
            parser.error(f"unknown scenario(s): {', '.join(sorted(unknown))}")
        scenarios = [s for s in scenarios if s.name in wanted]
    if args.steps is not None:
        scenarios = [replace(s, n_steps=args.steps) for s in scenarios]

    harness = ChaosHarness(seed=args.seed, tol=args.tol)
    campaign = harness.run_campaign(scenarios)
    print(render_report(campaign))
    if args.json:
        path = write_json_report(campaign, args.json)
        print(f"json report: {path}")
    if args.trace:
        write_chrome_trace(args.trace, harness.tracer)
        print(f"trace: {args.trace}")
    return 0 if campaign.all_survived else 1


if __name__ == "__main__":
    sys.exit(main())
