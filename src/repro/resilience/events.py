"""Structured event log of faults, rollbacks and retries.

Production campaigns live or die by their operational record: which step
diverged, which checkpoint was corrupt, how many retries a run needed.
:class:`EventLog` is the single structured stream all resilience
components append to; the :class:`ResilientRunner` returns it alongside
the step results.  Each record is also a ``resilience.<kind>`` instant
event on the log's tracer, so a Chrome trace of the run places the
faults, rollbacks and retries among the step spans and the ``sim.cfl``
lane that led up to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability.tracer import NULL_TRACER

__all__ = ["Event", "EventLog"]


@dataclass
class Event:
    """One entry in the resilience log.

    ``kind`` is a short tag: ``"fault"``, ``"fault_detected"``,
    ``"rollback"``, ``"retry"``, ``"checkpoint"``, ``"corrupt_checkpoint"``,
    ...  ``step``/``time`` locate it in the run; ``data`` carries
    kind-specific payload (cause and rank, dt before and after, steps
    replayed, ...).
    """

    kind: str
    step: int = -1
    time: float = 0.0
    detail: str = ""
    data: dict = field(default_factory=dict)


class EventLog:
    """Append-only list of :class:`Event` with small query helpers.

    ``tracer`` (default: the no-op tracer) receives every record as a
    ``resilience.<kind>`` event nested under whatever span is open.
    """

    def __init__(self, tracer=None) -> None:
        self.events: list[Event] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def record(
        self, kind: str, step: int = -1, time: float = 0.0, detail: str = "", **data
    ) -> Event:
        ev = Event(kind=kind, step=step, time=time, detail=detail, data=data)
        self.events.append(ev)
        self.tracer.event(f"resilience.{kind}", step=step, time=time, detail=detail, **data)
        return ev

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return len(self.of_kind(kind))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def summary(self) -> str:
        """Human-readable transcript, one line per event."""
        lines = []
        for e in self.events:
            loc = f"step {e.step}" if e.step >= 0 else ""
            extra = f" {e.data}" if e.data else ""
            lines.append(f"[{e.kind}] {loc} {e.detail}{extra}".rstrip())
        return "\n".join(lines)
