"""Regenerate the committed ``BENCH_scaling.json`` golden baseline.

The scaling campaign's "seconds" are *simulated* (DES) step times --
deterministic functions of the mesh structure, the partition and the
Table 1 machine parameters, with no wall clock anywhere -- so the
baseline is a golden file, reproducible bit-for-bit on any host.  Commit
the regenerated file whenever a deliberate change to the comm engine,
the cost model or the work model moves the numbers, together with the
reasoning for the move::

    PYTHONPATH=src python -m benchmarks.regen_scaling_baseline

CI regenerates the file with ``--out`` and ``cmp``s it byte for byte
against the committed copy (tier-1 asserts the same equality); an
unexplained difference there means the simulated machine changed when
only the code was supposed to.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.comm.campaign import DEFAULT_RANKS, DEFAULT_SHAPE, bench_record, run_fig3_campaign

__all__ = ["regenerate", "main"]

#: The committed baseline lives at the repository root.
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def regenerate(path: Path = BASELINE) -> Path:
    """Run the deterministic campaign and (over)write the baseline."""
    results = run_fig3_campaign(DEFAULT_RANKS, shape=DEFAULT_SHAPE, lx=8)
    # No environment block: the payload is host-independent, and keeping
    # the golden file free of timestamps keeps its diffs reviewable.
    record = bench_record(results, environment={})
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(BASELINE), help="baseline path to write")
    args = parser.parse_args(argv)
    path = regenerate(Path(args.out))
    data = json.loads(path.read_text())
    print(f"wrote {path} ({len(data['results'])} entries)")
    for name, rec in sorted(data["results"].items()):
        print(
            f"  {name:<28s} {rec['seconds'] * 1e3:9.3f} ms  "
            f"eff {rec['efficiency']:.3f}  topo x{rec['gs_topology_speedup']:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
