"""Crash flight recorder: a bounded ring of recent steps, dumped on failure.

When a week-long campaign dies, the question is never "did it die" but
"what were the last minutes like": were the pressure iterations climbing,
had the CFL crept up, was the in-situ queue backing up, which resilience
events fired.  A full trace of the whole run is too large to keep; the
flight recorder keeps only the last ``capacity`` steps -- per-step spans,
a metrics snapshot, solver-monitor records and the step result -- plus a
bounded tail of resilience events, and writes the whole bundle
*atomically* (temp file + ``os.replace``) as JSONL when something trips:

* the divergence guard in :meth:`Simulation.run` (wired via the
  simulation's ``flight=`` parameter);
* :class:`~repro.resilience.runner.ResilientRunner` exhausting its retry
  budget (``flight=`` parameter, or adopted from the simulation);
* any exception inside an :meth:`armed` block, or a signal registered via
  :meth:`install_signal_handler`.

Bundles load back with :meth:`FlightBundle.load` and via the
``python -m repro.observability flight`` CLI.  The default output
directory honours the ``REPRO_FLIGHT_DIR`` environment variable so CI can
collect bundles as artifacts from failing jobs.
"""

from __future__ import annotations

import json
import os
import signal as _signal
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.observability.jsonio import dump_line

__all__ = ["FlightFrame", "FlightRecorder", "FlightBundle", "FLIGHT_DIR_ENV"]

#: Environment variable naming the default dump directory.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Best-effort conversion for numpy scalars and exotic payloads."""
    for caster in (float, int):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return repr(value)


@dataclass
class FlightFrame:
    """One step's record: result summary, monitors, metrics, spans."""

    step: int
    time: float
    result: dict = field(default_factory=dict)
    monitors: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def as_record(self) -> dict:
        return {"kind": "frame", **asdict(self)}

    @classmethod
    def from_record(cls, rec: dict) -> "FlightFrame":
        return cls(
            step=int(rec.get("step", -1)),
            time=float(rec.get("time", 0.0)),
            result=dict(rec.get("result", {})),
            monitors=list(rec.get("monitors", [])),
            metrics=dict(rec.get("metrics", {})),
            spans=list(rec.get("spans", [])),
        )


class FlightRecorder:
    """Bounded in-memory ring of step frames and events.

    Parameters
    ----------
    capacity:
        Steps retained (the "last N steps" window).
    event_capacity:
        Events retained; defaults to ``8 * capacity`` so a retry storm
        does not evict the frames' context.
    out_dir:
        Where :meth:`dump` writes when given no explicit path; defaults to
        ``$REPRO_FLIGHT_DIR`` (read at dump time) or the working directory.
    """

    def __init__(
        self,
        capacity: int = 16,
        event_capacity: int | None = None,
        out_dir: "Path | str | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.frames: deque[FlightFrame] = deque(maxlen=capacity)
        self.events: deque[dict] = deque(maxlen=event_capacity or 8 * capacity)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.dumps: list[Path] = []

    # -- recording ------------------------------------------------------------

    def record_step(self, sim: Any, result: Any) -> FlightFrame:
        """Capture one completed step from a simulation-like object.

        Duck-typed: uses ``sim.tracer`` (the last completed ``step`` root
        span, when a live tracer is attached), ``sim.metrics`` and the
        fluid/scalar solver monitors when present; a bare object with none
        of them still yields a frame with the step result.
        """
        result_rec = asdict(result) if is_dataclass(result) else dict(vars(result))
        monitors: list[dict] = []
        for scheme_name in ("fluid", "scalar"):
            scheme = getattr(sim, scheme_name, None)
            for mon in getattr(scheme, "monitors", {}).values():
                if hasattr(mon, "as_record"):
                    monitors.append(mon.as_record())
        metrics = getattr(sim, "metrics", None)
        frame = FlightFrame(
            step=int(result_rec.get("step", getattr(sim, "step_count", -1))),
            time=float(result_rec.get("time", getattr(sim, "time", 0.0))),
            result=result_rec,
            monitors=monitors,
            metrics=metrics.snapshot() if metrics is not None else {},
            spans=self._last_step_spans(getattr(sim, "tracer", None)),
        )
        self.frames.append(frame)
        return frame

    @staticmethod
    def _last_step_spans(tracer: Any) -> list[dict]:
        """Flat records of the most recent completed root span tree."""
        roots = getattr(tracer, "roots", None)
        if not roots:
            return []
        for root in reversed(roots):
            if root.end is None:
                continue
            return [
                {
                    "name": sp.name,
                    "start": sp.start,
                    "duration": sp.duration,
                    "depth": sp.depth,
                    "instant": sp.instant,
                    "tags": {str(k): _jsonable(v) for k, v in sp.tags.items()},
                    "counters": dict(sp.counters),
                }
                for sp in root.walk()
            ]
        return []

    def record_event(
        self, kind: str, step: int = -1, time: float = 0.0, detail: str = "", **data: Any
    ) -> dict:
        """Append one event (resilience, lifecycle) to the ring."""
        ev = {
            "kind": "event",
            "event": kind,
            "step": int(step),
            "time": float(time),
            "detail": detail,
            "data": {str(k): _jsonable(v) for k, v in data.items()},
        }
        self.events.append(ev)
        return ev

    # -- dumping --------------------------------------------------------------

    def _resolve_path(self, path: "Path | str | None", reason: str) -> Path:
        if path is not None:
            return Path(path)
        out_dir = self.out_dir
        if out_dir is None:
            out_dir = Path(os.environ.get(FLIGHT_DIR_ENV, "."))
        last_step = self.frames[-1].step if self.frames else 0
        safe_reason = "".join(c if c.isalnum() else "_" for c in reason)
        return out_dir / f"flight_step{last_step:06d}_{safe_reason}.jsonl"

    def dump(self, path: "Path | str | None" = None, reason: str = "manual") -> Path:
        """Write the bundle atomically; returns the final path.

        The bundle is JSONL: a header line, then one line per frame
        (oldest first), then one line per event.  Every line goes through the
        strict-JSON sanitizer (:mod:`repro.observability.jsonio`) -- a NaN
        gauge in a frame's metrics snapshot becomes ``null``, never an
        invalid ``NaN`` literal.  Written to a temporary sibling and moved
        into place with ``os.replace``, so a reader (or a second crash)
        never sees a half-written bundle.
        """
        target = self._resolve_path(path, reason)
        target.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "schema": SCHEMA_VERSION,
            "reason": reason,
            "n_frames": len(self.frames),
            "n_events": len(self.events),
            "capacity": self.capacity,
            "steps": [f.step for f in self.frames],
        }
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dump_line(header))
            for frame in self.frames:
                fh.write(dump_line(frame.as_record()))
            for ev in self.events:
                fh.write(dump_line(ev))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        self.dumps.append(target)
        return target

    # -- failure hooks --------------------------------------------------------

    @contextmanager
    def armed(
        self, path: "Path | str | None" = None, reason: str = "exception"
    ) -> Iterator["FlightRecorder"]:
        """Dump the bundle if the block raises; the exception propagates."""
        try:
            yield self
        except BaseException as exc:
            self.record_event("flight.exception", detail=repr(exc))
            self.dump(path=path, reason=reason)
            raise

    def install_signal_handler(
        self, signum: int = _signal.SIGTERM, path: "Path | str | None" = None
    ) -> None:
        """Dump on ``signum`` (then re-deliver to the previous handler).

        For batch systems that SIGTERM jobs at the wall-time limit: the
        bundle lands on disk before the process dies.
        """
        previous = _signal.getsignal(signum)

        def _handler(sig: int, frame: Any) -> None:
            self.record_event("flight.signal", detail=f"signal {sig}")
            self.dump(path=path, reason=f"signal{sig}")
            if callable(previous):
                previous(sig, frame)
            elif previous == _signal.SIG_DFL:
                _signal.signal(sig, _signal.SIG_DFL)
                _signal.raise_signal(sig)

        _signal.signal(signum, _handler)


@dataclass
class FlightBundle:
    """A parsed flight-recorder dump."""

    header: dict
    frames: list[FlightFrame] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    @property
    def steps(self) -> list[int]:
        return [f.step for f in self.frames]

    @classmethod
    def load(cls, path: "Path | str") -> "FlightBundle":
        """Parse a bundle written by :meth:`FlightRecorder.dump`."""
        header: dict | None = None
        frames: list[FlightFrame] = []
        events: list[dict] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                kind = rec.get("kind")
                if kind == "header":
                    header = rec
                elif kind == "frame":
                    frames.append(FlightFrame.from_record(rec))
                elif kind == "event":
                    events.append(rec)
                else:
                    raise ValueError(f"unknown flight record kind {kind!r}")
        if header is None:
            raise ValueError(f"{path}: not a flight bundle (no header line)")
        return cls(header=header, frames=frames, events=events)

    def summary(self) -> str:
        """Human-readable digest: window, reason, last frame, event tail."""
        steps = self.steps
        window = f"steps {steps[0]}..{steps[-1]}" if steps else "no frames"
        lines = [
            f"flight bundle: reason={self.header.get('reason')!r} "
            f"{window} ({len(self.frames)} frames, {len(self.events)} events)"
        ]
        if self.frames:
            last = self.frames[-1]
            res = last.result
            cfl = res.get("cfl")
            lines.append(
                f"last frame: step {last.step} t={last.time:.4f}"
                + (f" CFL={cfl:.3f}" if isinstance(cfl, float) else "")
            )
            for mon in last.monitors:
                lines.append(
                    f"  {mon.get('name', 'solve')}: {mon.get('iterations')} iters, "
                    f"converged={mon.get('converged')}"
                )
        for ev in self.events[-10:]:
            loc = f"step {ev['step']}" if ev.get("step", -1) >= 0 else ""
            lines.append(f"[{ev['event']}] {loc} {ev.get('detail', '')}".rstrip())
        return "\n".join(lines)
