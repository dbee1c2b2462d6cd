"""``python -m repro.observability``: inspect flight bundles.

One subcommand closes the loop between a run's on-disk record and a
human:

* ``flight`` -- parse a flight-recorder bundle back and print its digest
  (window of steps, last frame, solver monitors, event tail).

Exit codes: 0 on success, 2 on unreadable/invalid input.
"""

from __future__ import annotations

import argparse
import json

from repro.observability.fleet.flight import FlightBundle

__all__ = ["main"]


def _cmd_flight(args: argparse.Namespace) -> int:
    try:
        bundle = FlightBundle.load(args.bundle)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load flight bundle: {exc}")
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "header": bundle.header,
                    "frames": [f.as_record() for f in bundle.frames],
                    "events": bundle.events,
                }
            )
        )
    else:
        print(bundle.summary())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flight = sub.add_parser("flight", help="inspect a flight-recorder bundle")
    p_flight.add_argument("bundle", help="flight bundle (.jsonl)")
    p_flight.add_argument("--json", action="store_true", help="emit parsed JSON")
    p_flight.set_defaults(func=_cmd_flight)

    args = parser.parse_args(argv)
    return int(args.func(args))
