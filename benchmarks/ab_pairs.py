"""Alternating A/B pairs of one spine workload: a base revision against the working tree.

::

    python -m benchmarks.ab_pairs --workload rbc_cyl_p7 --pairs 7 --base HEAD
    make ab WORKLOAD=rbc_cyl_p7 PAIRS=7 BASE=HEAD

The base revision is checked out with ``git worktree`` into a temporary
directory, removed again at the end.  Pair ``k`` (seeds 1, 2, ...) runs

    benchmarks/spine/run.py --workload W --seed k --seconds 15 --trace 0

once in each tree, each in a fresh process.  The base goes first in odd
pairs and the working tree in even ones, so a host that drifts during the
run favours neither side.  For every end-to-end metric of
``BENCHMARK.json`` the summary gives both sides' median and quartiles, the
ratio of the medians and the number of pairs the working tree won, in the
metric's own direction.  A single pair says little on a shared host: read
the win count and the quartiles, not one ratio.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["parse_result", "summarize", "format_summary", "main"]

ROOT = Path(__file__).resolve().parents[1]
SPINE = Path("benchmarks") / "spine" / "run.py"


def parse_result(stdout: str) -> dict:
    """The result object: the last line ``run.py`` prints."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> list[dict]:
    """One row per declared metric over ``(base, head)`` result pairs."""
    rows = []
    for metric in declared:
        name = metric["name"]
        base = np.array([b["metrics"][name]["value"] for b, _ in pairs], dtype=float)
        head = np.array([h["metrics"][name]["value"] for _, h in pairs], dtype=float)
        better = head > base if metric["better"] == "higher" else head < base
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "base": np.percentile(base, [50, 25, 75]).tolist(),
            "head": np.percentile(head, [50, 25, 75]).tolist(),
            "ratio": float(np.median(head) / np.median(base)),
            "wins": int(np.count_nonzero(better)),
            "pairs": len(pairs),
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    """A fixed-width table of :func:`summarize` rows."""
    lines = [f"{'metric':18s} {'base median (q1-q3)':>28s} {'head median (q1-q3)':>28s} "
             f"{'head/base':>9s} {'wins':>6s}"]
    for r in rows:
        sides = [f"{m:.4g} ({lo:.4g}-{hi:.4g})" for m, lo, hi in (r["base"], r["head"])]
        lines.append(f"{r['name']:18s} {sides[0]:>28s} {sides[1]:>28s} "
                     f"{r['ratio']:>9.3f} {r['wins']:>3d}/{r['pairs']}")
    return "\n".join(lines)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / SPINE), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    args = parser.parse_args(argv)

    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), args.base],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            for k in range(1, args.pairs + 1):
                order = [("base", base_tree), ("head", ROOT)]
                if k % 2 == 0:
                    order.reverse()
                got = {side: _run(tree, args.workload, k, args.seconds) for side, tree in order}
                base, head = got["base"], got["head"]
                pairs.append((base, head))
                values = ", ".join(
                    f"{name} {base['metrics'][name]['value']:.4g} -> "
                    f"{head['metrics'][name]['value']:.4g}"
                    for name in (m["name"] for m in contract["end_to_end"])
                )
                print(f"# pair {k}, {order[0][0]} first: {values}; failed operations "
                      f"{base['failed']} -> {head['failed']}", flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)],
                           cwd=ROOT, check=False, capture_output=True)
    print(f"# {args.workload}: {args.base} (base) against the working tree (head), "
          f"{len(pairs)} pairs")
    print(format_summary(summarize(pairs, contract["end_to_end"])))
    for side, k in (("base", 0), ("head", 1)):
        print(f"# {side}: {sum(p[k]['failed'] for p in pairs)} of "
              f"{sum(p[k]['attempted'] for p in pairs)} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
