"""Command line of the measurement spine.

One workload, one pass (what the benchmark driver runs; the last line of
standard output is the result object)::

    python3 benchmarks/spine/run.py --workload rbc_nu_p5 --seed 0 --seconds 20 --trace 0

Every workload, untraced then traced, each in a fresh process, with the
passes compared and everything written to ``--out``::

    python3 benchmarks/spine/run.py --seed 0 --out bench_out/spine
    python3 benchmarks/spine/run.py --selfcheck      # untraced set twice, must agree
    python3 benchmarks/spine/run.py --quick          # seconds per workload, not comparable
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# The driver's command names only this file, so the program's source tree
# and the repository root (for ``benchmarks.spine``) are put on the path here.
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SOLVER_WORKLOADS = ("rbc_nu_p5", "rbc_cyl_p7", "scalar_transport_p7")
QUICK_SECONDS = 1.0


def load_contract() -> dict:
    """``BENCHMARK.json``: the one place names, units and bounds are written."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before NumPy is first imported."""
    for name in THREAD_PINS:
        os.environ[name] = "1"


def pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds, which otherwise adapt at run time.

    Left to adapt, large NumPy temporaries are either served from the heap or
    mmap'ed and page-faulted afresh on every call, depending on the order of
    earlier frees: the same workload then runs in one of two modes 1.7x apart,
    chosen per process.  Pinned, temporaries up to 32 MiB always come from a
    heap that is never trimmed -- the state a long run settles into.
    """
    import ctypes

    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 1 << 30))


def _plain(value) -> float | int:
    """A JSON number from a Python or NumPy scalar."""
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def _with_units(measured: dict, declared: list[dict], fill: bool) -> dict:
    """Attach declared units; every declared metric, and no other, is reported."""
    names = {m["name"] for m in declared}
    unknown = set(measured) - names
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    missing = names - set(measured)
    if missing and not fill:
        raise KeyError(f"declared metrics not measured: {sorted(missing)}")
    # A layer a workload does not enter did no work there: zero, by name.
    return {
        m["name"]: {"value": _plain(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def run_one(args, contract: dict) -> int:
    """Measure one workload in this process and print its result object."""
    try:
        if args.workload in SOLVER_WORKLOADS:
            from benchmarks.spine import solver as module
        else:
            from benchmarks.spine import campaign as module
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    seconds = min(args.seconds, QUICK_SECONDS) if args.quick else args.seconds
    result = module.run(args.workload, args.seed, seconds, trace, args.quick)

    samples, tally = result["samples"], result["tally"]
    if trace:
        # Reported, not bounded: on a shared host the tail's run-to-run
        # spread is wider than any bound the contract allows.
        result["metrics"]["bench.op_ms_tail"] = samples["op_ms_tail"]
        result["metrics"]["bench.op_tail_percentile"] = samples["tail_percentile"]
    declared = contract["per_layer" if trace else "end_to_end"]
    metrics = _with_units(result["metrics"], declared, fill=trace)
    print(f"# {args.workload} seed={args.seed} seconds={seconds:g} trace={int(trace)} "
          f"allocator_pinned={args.allocator_pinned}"
          + (" QUICK: numbers not comparable" if args.quick else ""))
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"# samples: {samples['ops']} operations, {samples['setup_builds']} set-up builds; "
          f"tail p{samples['tail_percentile']:.1f} = {samples['op_ms_tail']:.3f} ms")
    if "host" in result:
        host = result["host"]
        print(f"# triad arrays {host['array_bytes'] / 2**20:.0f} MiB each, last-level cache "
              f"{host['llc_bytes'] / 2**20:.0f} MiB, >= 4x LLC: {host['sized_to_4x_llc']}")
    for check in tally.checks:
        print(f"# check {check['name']}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    print(f"# operations: {tally.attempted} attempted, {tally.failed} failed")

    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = dict(summary, workload=args.workload, seed=args.seed, seconds=seconds,
                      comparable=not args.quick, checks=tally.checks, samples=samples,
                      host=result.get("host"), fingerprint=result["fingerprint"])
        (out / f"{args.workload}.trace{int(trace)}.json").write_text(json.dumps(record) + "\n")
        if trace:
            _write_spans(out / f"spans_{args.workload}.json", args.workload, result["spans"])
    print(json.dumps(summary))
    return 0


def _write_spans(path: Path, workload: str, spans: list[list]) -> None:
    from benchmarks.spine.spans import aggregate

    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    path.write_text(json.dumps({
        "workload": workload,
        "clock": "time.perf_counter seconds",
        "columns": ["name_index", "start", "end", "parent"],
        "names": names,
        "spans": [[index[n], t0, t1, parent] for n, t0, t1, parent in spans],
        "aggregate": aggregate(spans),
    }) + "\n")


# -- every workload, both passes ---------------------------------------------------


def environment() -> dict:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.__config__.show(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
    }


def _child(workload: str, args, trace: int, out: Path) -> dict:
    """One workload, one pass, in a fresh process (cold set-up, clean peak RSS)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(out),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} (trace {trace}) exited with code {done.returncode}")
    return json.loads((out / f"{workload}.trace{trace}.json").read_text())


def _same_prefix(a, b) -> bool:
    """Deterministic outputs agree over the steps both passes computed.

    A fingerprint is a tree of dicts whose leaves are per-step lists; a
    time-bounded pass may have taken more steps than the other.
    """
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_prefix(a[k], b[k]) for k in a)
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def run_all(args, contract: dict) -> int:
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in contract["workloads"]]
    ok = True
    report = {"environment": environment(), "comparable": not args.quick, "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    traces = {}
    for workload in names:
        plain = _child(workload, args, 0, out)
        traced = _child(workload, args, 1, out)
        identical = _same_prefix(plain["fingerprint"], traced["fingerprint"])
        print(f"# {workload}: traced pass bit-identical to untraced: {identical}")
        ok &= plain["correct"] and traced["correct"] and identical
        report["workloads"][workload] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "samples": plain["samples"],
            "host": traced["host"],
            "operations": {p: {"attempted": r["attempted"], "failed": r["failed"]}
                           for p, r in (("untraced", plain), ("traced", traced))},
            "checks": {"untraced": plain["checks"], "traced": traced["checks"]},
            "traced_identical_to_untraced": identical,
        }
        traces[workload] = f"spans_{workload}.json"
    (out / "results.json").write_text(json.dumps(report, indent=1) + "\n")
    (out / "trace.json").write_text(json.dumps({
        "how_to_read": "benchmarks/spine/README.md, section 'Reading trace.json'",
        "spans": traces,
    }, indent=1) + "\n")
    print(f"# wrote {out / 'results.json'} and {out / 'trace.json'}; all checks passed: {ok}")
    return 0 if ok else 1


def selfcheck(args, contract: dict) -> int:
    """Two untraced sets of the same code must agree within the bounds."""
    from benchmarks.spine.summary import worsening

    out = Path(args.out).resolve()
    names = [w["name"] for w in contract["workloads"]]
    sets = [{w: _child(w, args, 0, out / f"set{i}") for w in names} for i in (1, 2)]
    failed = False
    for workload in names:
        for metric in contract["end_to_end"]:
            a, b = (s[workload]["metrics"][metric["name"]]["value"] for s in sets)
            worse = worsening(a, b, metric["better"])
            verdict = "ok" if abs(worse) <= metric["bound"] else "OUTSIDE BOUND"
            failed |= verdict != "ok"
            print(f"{workload:22s} {metric['name']:18s} {a:14.6g} {b:14.6g} "
                  f"{worse:+8.2%} (bound {metric['bound']:.0%}) {verdict}")
    return 1 if failed else 0


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for result and span files")
    parser.add_argument("--quick", action="store_true", help="tiny cases; not comparable")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    pin_threads()
    args.allocator_pinned = pin_allocator()
    if args.workload:
        return run_one(args, contract)
    args.out = args.out or "bench_out/spine"
    return selfcheck(args, contract) if args.selfcheck else run_all(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())
