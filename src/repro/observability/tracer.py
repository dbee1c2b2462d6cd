"""Hierarchical wall-clock span tracing.

The paper's performance evidence is observational: Fig. 2 is a kernel-level
execution trace, Fig. 4 a per-phase wall-time breakdown.  This module is
the instrumentation that produces the equivalent record for the Python
solver: nested :class:`Span` objects with wall time, counters and tags,
collected by a :class:`Tracer` and exported (``repro.observability.export``)
to Chrome-trace JSON or a plain-text tree.

Instrumented code never pays for tracing it does not use: the module-level
:data:`NULL_TRACER` (a :class:`NullTracer`) implements the same interface
as pure no-ops, and every integration point in the solver defaults to it.
The hot kernels themselves (``ax_helmholtz``, gather--scatter) are *not*
wrapped per call -- spans sit at the phase/solve level, matching the MPI
region timers of the production code, so the overhead of a live tracer is
a handful of microseconds per time step.

Tracers are single-threaded by design (one per simulation loop, like one
per MPI rank); asynchronous components (the in-situ pipeline worker)
report through their own stats objects (``PipelineStats``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ContextManager, Iterator, Protocol

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "TracerProtocol"]

if TYPE_CHECKING:  # pragma: no cover

    class TracerProtocol(Protocol):
        """The tracer surface instrumented code relies on.

        Both :class:`Tracer` and :class:`NullTracer` satisfy it; annotate
        injected tracer attributes with this protocol so call sites stay
        typed without coupling to either implementation.
        """

        enabled: bool

        def span(self, name: str, **tags: Any) -> ContextManager[Any]: ...

        def event(self, name: str, **tags: Any) -> Any: ...

        def record_span(
            self,
            name: str,
            duration: float,
            counters: dict[str, float] | None = None,
            **tags: Any,
        ) -> Any: ...

        def sample(self, name: str, value: float, **tags: Any) -> Any: ...

        def add(self, counter: str, value: float = 1.0) -> None: ...

        def set_tag(self, key: str, value: Any) -> None: ...

else:  # pragma: no cover - runtime placeholder so isinstance-free imports work
    TracerProtocol = object


@dataclass
class Span:
    """One traced interval: a named region with children, tags and counters.

    ``start``/``end`` are seconds on the tracer's monotonic timeline
    (offsets from the tracer's construction).  ``tags`` are small
    descriptive values fixed at open time (step number, solver name);
    ``counters`` are numeric values accumulated while the span is open
    (iterations, bytes moved).
    """

    name: str
    start: float
    end: float | None = None
    parent: "Span | None" = field(default=None, repr=False)
    children: list["Span"] = field(default_factory=list)
    tags: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    instant: bool = False
    #: Counter samples (``Tracer.sample``) are instants that carry a numeric
    #: value meant to be rendered as a lane chart (Chrome-trace ``"C"``
    #: events), not as a point on the span timeline.
    sample: bool = False

    @property
    def duration(self) -> float:
        """Wall time in seconds (0.0 while open or for instant events)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans."""
        return self.duration - sum(c.duration for c in self.children if not c.instant)

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate a numeric counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and all descendants."""
        yield self
        for c in self.children:
            yield from c.walk()

    @property
    def depth(self) -> int:
        d, s = 0, self.parent
        while s is not None:
            d, s = d + 1, s.parent
        return d


class Tracer:
    """Collects a forest of nested :class:`Span` objects.

    Usage::

        tracer = Tracer()
        with tracer.span("step", step=3):
            with tracer.span("pressure"):
                tracer.add("iterations", mon.iterations)

    The clock is injectable for deterministic tests; each tracer starts
    its own timeline at construction.
    """

    enabled = True

    def __init__(self, clock: Any = time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- span lifecycle ------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._origin

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """Open a child span of the current span (a root span at top level)."""
        sp = Span(name=name, start=self._now(), parent=self.current, tags=tags)
        if sp.parent is not None:
            sp.parent.children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._now()
            self._stack.pop()

    def event(self, name: str, **tags: Any) -> Span:
        """Record a zero-duration instant event at the current position."""
        now = self._now()
        sp = Span(
            name=name, start=now, end=now, parent=self.current, tags=tags, instant=True
        )
        if sp.parent is not None:
            sp.parent.children.append(sp)
        else:
            self.roots.append(sp)
        return sp

    def sample(self, name: str, value: float, **tags: Any) -> Span:
        """Record one timestamped counter sample (a point of a metric lane).

        Samples are how time-varying signals -- CFL, dt -- enter the trace
        *with their timestamps*, so the exporter can render them as
        Chrome-trace counter (``"C"``) lanes alongside the span flame
        chart.  Sampling is cheap (one object per call) and only ever done
        at phase/step granularity.
        """
        now = self._now()
        sp = Span(
            name=name,
            start=now,
            end=now,
            parent=self.current,
            tags=tags,
            counters={"value": float(value)},
            instant=True,
            sample=True,
        )
        if sp.parent is not None:
            sp.parent.children.append(sp)
        else:
            self.roots.append(sp)
        return sp

    def record_span(
        self, name: str, duration: float, counters: dict[str, float] | None = None, **tags: Any
    ) -> Span:
        """Record an *aggregate* span ending now with a known duration.

        Used for phases whose time is accumulated across many tiny calls
        (gather--scatter) rather than measured as one contiguous interval;
        the span is placed so that it ends at the current time.
        """
        now = self._now()
        sp = Span(
            name=name,
            start=now - max(duration, 0.0),
            end=now,
            parent=self.current,
            tags=tags,
            counters=dict(counters or {}),
        )
        if sp.parent is not None:
            sp.parent.children.append(sp)
        else:
            self.roots.append(sp)
        return sp

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate a counter on the innermost open span (no-op at top level)."""
        if self._stack:
            self._stack[-1].add(counter, value)

    def set_tag(self, key: str, value: Any) -> None:
        """Set a tag on the innermost open span (no-op at top level)."""
        if self._stack:
            self._stack[-1].tags[key] = value

    # -- queries -------------------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for r in self.roots:
            yield from r.walk()

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.walk() if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration over all spans with the given name."""
        return sum(s.duration for s in self.spans_named(name))

    def aggregate(self) -> dict[str, tuple[float, int]]:
        """``{path: (total seconds, count)}`` keyed by slash-joined span path."""
        agg: dict[str, tuple[float, int]] = {}

        def visit(span: Span, prefix: str) -> None:
            path = f"{prefix}/{span.name}" if prefix else span.name
            if not span.instant:
                tot, cnt = agg.get(path, (0.0, 0))
                agg[path] = (tot + span.duration, cnt + 1)
            for c in span.children:
                visit(c, path)

        for r in self.roots:
            visit(r, "")
        return agg

    def reset(self) -> None:
        """Drop all completed spans (open spans survive, reparented as roots)."""
        self.roots = list(self._stack[:1])
        for sp in self._stack:
            sp.children = [c for c in sp.children if c.end is None]


class _NullSpan:
    """Inert span handed out by :class:`NullTracer`; absorbs all calls."""

    __slots__ = ()
    duration = 0.0
    self_time = 0.0
    children: list["_NullSpan"] = []
    counters: dict[str, float] = {}
    tags: dict[str, Any] = {}
    name = ""

    def add(self, counter: str, value: float = 1.0) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: same interface as :class:`Tracer`, near-zero cost.

    This is the default everywhere instrumentation is threaded through the
    solver, keeping the uninstrumented hot path identical to the
    pre-observability code (one attribute check and a trivial context
    manager per *phase*, never per kernel call).
    """

    enabled = False
    roots: list[Span] = []
    current = None

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[_NullSpan]:
        yield _NULL_SPAN

    def event(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def sample(self, name: str, value: float, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(
        self, name: str, duration: float, counters: dict[str, float] | None = None, **tags: Any
    ) -> _NullSpan:
        return _NULL_SPAN

    def add(self, counter: str, value: float = 1.0) -> None:
        pass

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def walk(self) -> Iterator[Span]:
        return iter(())

    def spans_named(self, name: str) -> list[Span]:
        return []

    def total(self, name: str) -> float:
        return 0.0

    def aggregate(self) -> dict[str, tuple[float, int]]:
        return {}

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()
