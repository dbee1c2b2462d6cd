"""Comparator for the bench trajectory: diff a run against the baseline.

Reads two ``BENCH_*.json`` files produced by
:mod:`benchmarks.perf_harness` and fails (nonzero exit) when any shared
benchmark slowed down beyond the noise threshold, or when the candidate
dropped a benchmark the baseline has (silent coverage loss reads as
"nothing regressed" when nothing was measured).

The threshold is *relative*: ``--threshold 0.3`` tolerates a 30 % slowdown
per entry.  Same-machine smoke runs sit well inside that; a genuine 2x
regression is far outside it.  Cross-machine comparisons (CI vs. the
committed baseline) should pass a generous threshold -- the point there is
catching catastrophic regressions, not 10 % drifts on different silicon.

Usage::

    PYTHONPATH=src python -m benchmarks.compare_bench \
        BENCH_kernels.json bench_out/BENCH_kernels.json --threshold 0.3
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Comparison",
    "compare",
    "check_ledger_trends",
    "render_table",
    "main",
]

#: Structural sub-keys the comparator refuses to lose.  ``calls`` and
#: ``bytes`` carry the traffic accounting behind the bandwidth figures and
#: ``memory`` the peak-RSS/allocation-delta footprint; a candidate that
#: drops any of them from an entry the baseline measures has silently lost
#: coverage even if its wall time looks fine.
TRACKED_SUBKEYS = ("calls", "bytes", "memory")


@dataclass
class Comparison:
    """Outcome for one benchmark entry."""

    name: str
    baseline_seconds: float | None
    candidate_seconds: float | None
    ratio: float | None
    regressed: bool
    lost_subkeys: list[str] = field(default_factory=list)

    def describe(self, threshold: float) -> str:
        if self.baseline_seconds is None:
            return f"  NEW  {self.name:<20s} {self.candidate_seconds * 1e3:9.3f} ms (no baseline)"
        if self.candidate_seconds is None:
            return f"  GONE {self.name:<20s} missing from candidate (was {self.baseline_seconds * 1e3:.3f} ms)"
        verdict = "FAIL" if self.regressed else ("ok  " if self.ratio <= 1.0 + threshold else "??  ")
        return (
            f"  {verdict} {self.name:<20s} {self.baseline_seconds * 1e3:9.3f} -> "
            f"{self.candidate_seconds * 1e3:9.3f} ms   x{self.ratio:.3f}"
        )


def compare(baseline: dict, candidate: dict, threshold: float = 0.3) -> list[Comparison]:
    """Entry-by-entry comparison of two bench records.

    An entry regresses when ``candidate > baseline * (1 + threshold)``;
    an entry present in the baseline but absent from the candidate also
    counts as a regression (lost coverage), as does an entry that dropped
    a :data:`TRACKED_SUBKEYS` sub-key the baseline records.
    """
    base = baseline.get("results", {})
    cand = candidate.get("results", {})
    out: list[Comparison] = []
    for name in sorted(set(base) | set(cand)):
        b = base.get(name, {}).get("seconds")
        c = cand.get(name, {}).get("seconds")
        if b is None:
            out.append(Comparison(name, None, c, None, regressed=False))
        elif c is None:
            out.append(Comparison(name, b, None, None, regressed=True))
        else:
            ratio = c / b if b > 0 else float("inf")
            lost = [
                k for k in TRACKED_SUBKEYS
                if k in base[name] and k not in cand[name]
            ]
            out.append(
                Comparison(
                    name, b, c, ratio,
                    regressed=ratio > 1.0 + threshold or bool(lost),
                    lost_subkeys=lost,
                )
            )
    return out


def check_ledger_trends(
    candidate: dict, ledger_path: Path, window: int = 5, threshold: float = 0.3
) -> list[str]:
    """Gate the candidate against the campaign ledger's recent history.

    The two-file diff above compares against *one* baseline run; the
    ledger gate compares against the rolling median of the last ``window``
    recorded runs, which is robust to a single noisy baseline.  For every
    candidate entry whose name the ledger knows, the candidate's seconds
    must stay within ``(1 + threshold)`` of that median.  Returns failure
    messages (empty = pass).  A missing or too-short ledger series is not
    a failure -- trend gating only engages once history exists.
    """
    from repro.observability.campaign import Ledger
    from repro.observability.campaign.trend import median

    ledger = Ledger(Path(ledger_path))
    cand = candidate.get("results", {})
    failures: list[str] = []
    for name in sorted(cand):
        seconds = cand[name].get("seconds")
        if seconds is None:
            continue
        history = [v for _, v in ledger.series(name)][-window:]
        if len(history) < 3:
            continue
        baseline = median(history)
        if baseline > 0 and seconds > baseline * (1.0 + threshold):
            failures.append(
                f"{name}: {seconds * 1e3:.3f} ms is x{seconds / baseline:.3f} the "
                f"rolling median of the last {len(history)} ledger runs "
                f"({baseline * 1e3:.3f} ms)"
            )
    return failures


def render_table(comparisons: list[Comparison], threshold: float) -> list[str]:
    """Aligned per-entry summary table, printed on success and failure alike.

    A green run that shows its numbers is reviewable; a green run that
    prints nothing forces the reviewer to trust the exit code.
    """
    name_w = max([len(c.name) for c in comparisons] + [len("benchmark")])
    header = (
        f"  {'benchmark':<{name_w}s} {'baseline':>12s} {'candidate':>12s} "
        f"{'ratio':>8s}  verdict"
    )
    lines = [header, "  " + "-" * (len(header) - 2)]
    for c in comparisons:
        base = f"{c.baseline_seconds * 1e3:9.3f} ms" if c.baseline_seconds is not None else "-"
        cand = f"{c.candidate_seconds * 1e3:9.3f} ms" if c.candidate_seconds is not None else "-"
        ratio = f"x{c.ratio:.3f}" if c.ratio is not None else "-"
        if c.regressed:
            verdict = "FAIL" if c.candidate_seconds is not None else "GONE"
        elif c.baseline_seconds is None:
            verdict = "NEW"
        else:
            verdict = "ok"
        if c.lost_subkeys:
            verdict += f" (lost sub-keys: {', '.join(c.lost_subkeys)})"
        lines.append(
            f"  {c.name:<{name_w}s} {base:>12s} {cand:>12s} {ratio:>8s}  {verdict}"
        )
    measured = [c for c in comparisons if c.ratio is not None]
    n_fail = sum(c.regressed for c in comparisons)
    tail = f"  {len(comparisons)} entr{'y' if len(comparisons) == 1 else 'ies'}, {n_fail} regressed"
    if measured:
        worst = max(measured, key=lambda c: c.ratio)
        tail += f"; worst ratio x{worst.ratio:.3f} ({worst.name})"
    lines.append(tail)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed BENCH_*.json baseline")
    parser.add_argument("candidate", type=Path, help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.3,
        help="tolerated relative slowdown per entry (0.3 = 30%%)",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        default=None,
        help="campaign ledger (JSONL); also gate the candidate against the "
        "rolling median of recent ledger runs",
    )
    parser.add_argument(
        "--trend-window",
        type=int,
        default=5,
        help="number of recent ledger runs the trend gate medians over",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    candidate = json.loads(args.candidate.read_text())
    comparisons = compare(baseline, candidate, threshold=args.threshold)

    print(f"comparing {args.candidate} against {args.baseline} (threshold {args.threshold:.0%})")
    for line in render_table(comparisons, args.threshold):
        print(line)
    failed = False
    regressed = [c for c in comparisons if c.regressed]
    if regressed:
        print(f"REGRESSION: {len(regressed)} entr{'y' if len(regressed) == 1 else 'ies'} "
              f"beyond the {args.threshold:.0%} threshold")
        failed = True
    if args.ledger is not None:
        trend_failures = check_ledger_trends(
            candidate, args.ledger, window=args.trend_window, threshold=args.threshold
        )
        for msg in trend_failures:
            print(f"TREND GATE: {msg}")
            failed = True
        if not trend_failures:
            print(f"ledger trend gate satisfied ({args.ledger})")
    if failed:
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
