"""Startup kernel autotuner: pick the smoother precision per ``(nelem, p)``.

One kernel choice depends on the problem shape and the BLAS build
underneath: ``smoother_dtype`` -- float32 vs float64 Schwarz/FDM local
solves (:mod:`repro.precond.fdm`); float64 wins at (27 el, p5), float32 at
(216 el, p7).  The f32 pick is additionally protected at runtime by the
:class:`~repro.precond.hsmg.IterationGuard`.  Dimensions whose variants
never won at any shape (per-axis ``einsum`` contractions, a disabled
operator cache) are not tuned: there is one contraction path and one cache
(EXPERIMENTS.md records the measurements behind their removal).

:func:`autotune` benchmarks both variants on synthetic, deterministically
generated data of the target shape and records the winner into a
:class:`TuningTable` -- a JSON-round-trippable artifact a `Simulation`
consults at startup (and that CI uploads).  Selection is a pure argmin
with ties broken by declaration order, so the same measurements always
produce the same table; tests inject a fake ``clock`` to pin the
measurements themselves.

A stale table (an entry naming a variant this build no longer knows) must
never take the solver down: :func:`apply_tuning` validates every
selection against :data:`DIMENSIONS`, silently substitutes the default,
and reports the substitution as an ``autotune.fallback`` tracer event and
metric counter.  Selections for dimensions this build does not tune
(tables written when there were three) are ignored.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "DIMENSIONS",
    "DEFAULTS",
    "TABLE_VERSION",
    "TuningEntry",
    "TuningTable",
    "autotune",
    "apply_tuning",
    "benchmark_smoother_dtype",
]

TABLE_VERSION = 1

#: Tunable dimensions and their known variants, in tie-break order (the
#: first variant wins ties, so defaults are listed first).
DIMENSIONS: dict[str, tuple[str, ...]] = {
    "smoother_dtype": ("float64", "float32"),
}

#: The safe selection used when a table entry is missing or unknown.
DEFAULTS: dict[str, str] = {
    "smoother_dtype": "float64",
}

Clock = Callable[[], float]


# -- synthetic workloads -------------------------------------------------------


def _synthetic_field(nelem: int, n: int, dtype: Any = np.float64) -> np.ndarray:
    """Deterministic dense field of the target shape (no RNG needed)."""
    size = nelem * n * n * n
    vals = (np.arange(size, dtype=np.float64) % 7.0) / 7.0 + 0.25
    return vals.reshape(nelem, n, n, n).astype(dtype)


def _synthetic_matrix(n: int, dtype: Any = np.float64) -> np.ndarray:
    vals = (np.arange(n * n, dtype=np.float64) % 5.0) / 5.0
    return (vals.reshape(n, n) + np.eye(n)).astype(dtype)


def _time_call(fn: Callable[[], Any], repeats: int, clock: Clock) -> float:
    """Best-of-``repeats`` wall time of ``fn`` (min filters scheduler noise)."""
    best = np.inf
    for _ in range(repeats):
        t0 = clock()
        fn()
        elapsed = clock() - t0
        best = min(best, elapsed)
    return float(best)


# -- per-dimension benchmarks --------------------------------------------------


def _fdm_proxy(u: np.ndarray, s: np.ndarray, st: np.ndarray, inv_d: np.ndarray) -> np.ndarray:
    """The FDM solve kernel shape: S^T-apply, pointwise scale, S-apply."""
    nelv, lz, ly, lx = u.shape
    v = u @ st.T
    v = np.matmul(st, v)
    v = np.matmul(st, v.reshape(nelv, lz, ly * lx)).reshape(u.shape)
    v = v * inv_d
    w = v @ s.T
    w = np.matmul(s, w)
    w = np.matmul(s, w.reshape(nelv, lz, ly * lx)).reshape(u.shape)
    return w


def benchmark_smoother_dtype(
    nelem: int, n: int, repeats: int = 3, clock: Clock = time.perf_counter
) -> dict[str, float]:
    """Seconds per FDM-shaped local solve in float64 vs float32.

    The float32 timing includes the down-cast of the residual and the
    up-cast of the correction, exactly as the mixed-precision smoother
    pays them per application.
    """
    u64 = _synthetic_field(nelem, n)
    s64 = _synthetic_matrix(n)
    st64 = np.ascontiguousarray(s64.T)
    inv64 = _synthetic_field(nelem, n)
    s32 = s64.astype(np.float32)
    st32 = st64.astype(np.float32)
    inv32 = inv64.astype(np.float32)

    def run64() -> None:
        _fdm_proxy(u64, s64, st64, inv64)

    def run32() -> None:
        u32 = u64.astype(np.float32)
        _fdm_proxy(u32, s32, st32, inv32).astype(np.float64)

    return {
        "float64": _time_call(run64, repeats, clock),
        "float32": _time_call(run32, repeats, clock),
    }


# -- tuning table --------------------------------------------------------------


@dataclass
class TuningEntry:
    """Winners (and raw measurements) for one ``(nelem, p)`` shape."""

    nelem: int
    p: int
    selections: dict[str, str]
    measurements: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "nelem": self.nelem,
            "p": self.p,
            "selections": dict(self.selections),
            "measurements": {k: dict(v) for k, v in self.measurements.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TuningEntry":
        return cls(
            nelem=int(data["nelem"]),
            p=int(data["p"]),
            selections={str(k): str(v) for k, v in data["selections"].items()},
            measurements={
                str(k): {str(vk): float(vv) for vk, vv in v.items()}
                for k, v in data.get("measurements", {}).items()
            },
        )


class TuningTable:
    """Reproducible ``(nelem, p) -> variant selection`` table (JSON artifact)."""

    def __init__(self, entries: list[TuningEntry] | None = None) -> None:
        self._entries: dict[tuple[int, int], TuningEntry] = {}
        for e in entries or []:
            self.add(e)

    def add(self, entry: TuningEntry) -> None:
        self._entries[(entry.nelem, entry.p)] = entry

    def lookup(self, nelem: int, p: int) -> TuningEntry | None:
        """Exact-shape lookup; ``None`` means autotune (or use defaults)."""
        return self._entries.get((int(nelem), int(p)))

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[TuningEntry]:
        return [self._entries[k] for k in sorted(self._entries)]

    def to_json(self) -> dict[str, Any]:
        return {
            "version": TABLE_VERSION,
            "entries": [e.to_dict() for e in self.entries()],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "TuningTable":
        version = int(data.get("version", 0))
        if version != TABLE_VERSION:
            raise ValueError(
                f"tuning table version {version} not supported (expected {TABLE_VERSION})"
            )
        return cls([TuningEntry.from_dict(d) for d in data.get("entries", [])])

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "TuningTable":
        return cls.from_json(json.loads(Path(path).read_text()))


# -- the autotuner -------------------------------------------------------------


def autotune(
    nelem: int,
    p: int,
    repeats: int = 3,
    clock: Clock = time.perf_counter,
    tracer: Any = None,
) -> TuningEntry:
    """Benchmark every variant for shape ``(nelem, p)`` and pick winners.

    Selection is ``argmin`` over the measured times with ties broken by
    the declaration order in :data:`DIMENSIONS` -- deterministic given the
    measurements, which an injected ``clock`` makes deterministic too.
    """
    n = p + 1
    measurements = {
        "smoother_dtype": benchmark_smoother_dtype(nelem, n, repeats, clock),
    }
    selections = {
        dim: min(DIMENSIONS[dim], key=lambda v: measurements[dim][v])
        for dim in DIMENSIONS
    }
    if tracer is not None:
        tracer.event(
            "autotune.sweep", nelem=nelem, p=p, **{f"pick_{k}": v for k, v in selections.items()}
        )
    return TuningEntry(nelem=nelem, p=p, selections=selections, measurements=measurements)


def apply_tuning(
    selections: dict[str, str] | None,
    tracer: Any = None,
    metrics: Any = None,
) -> dict[str, str]:
    """Validate a selection set; unknown variants fall back.

    Returns the selections to use, one per entry of :data:`DIMENSIONS`,
    for the caller (`Simulation`) to thread into the preconditioner
    construction; nothing process-wide is touched.  Every substitution of
    an unknown variant by its default is logged as an ``autotune.fallback``
    event and counted on the ``autotune.fallback`` metric -- a stale table
    must be visible, never fatal.  Keys outside :data:`DIMENSIONS` are
    ignored.
    """
    selections = selections or {}
    applied: dict[str, str] = {}
    for dim, default in DEFAULTS.items():
        value = selections.get(dim, default)
        if value not in DIMENSIONS[dim]:
            if tracer is not None:
                tracer.event("autotune.fallback", dimension=dim, requested=value, used=default)
            if metrics is not None:
                metrics.counter("autotune.fallback").inc()
            value = default
        applied[dim] = value
    if metrics is not None:
        for dim, value in applied.items():
            metrics.gauge(f"autotune.{dim}.variant_index").set(DIMENSIONS[dim].index(value))
    return applied
