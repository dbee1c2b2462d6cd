"""Spans recorded from benchmark code, around the calls into each layer.

The traced pass replaces public callables on the *live* solver objects
(instance attributes such as ``sim.fluid.step`` or ``space.gs.add``) with
:class:`_Traced` proxies and takes them off again afterwards; nothing under
``src/`` knows about it.  A span is ``[name, start, end, parent]`` with
``parent`` the index of the span that was open when it started (``-1`` for
a root).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["SpanTracer", "self_times", "aggregate"]

_ABSENT = object()


class _Traced:
    """Callable stand-in for ``target`` that records one span per call.

    Attribute reads fall through to the target, so code that reaches
    through a wrapped object (``hsmg.schwarz.fdm``) keeps working.
    """

    def __init__(self, tracer: "SpanTracer", name: str, target) -> None:
        self.__dict__.update(_tracer=tracer, _name=name, __wrapped__=target)

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self.__wrapped__, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self.__wrapped__, attr)


class SpanTracer:
    """In-memory span recorder with install/restore of attribute wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def install(self, targets) -> None:
        """Wrap every ``(obj, attr, span_name)``; undone by :meth:`restore`."""
        # Resolve all originals first: a target may be reached through
        # another target (``hsmg.schwarz`` and ``hsmg.schwarz.fdm.solve``).
        resolved = [(obj, attr, name, getattr(obj, attr)) for obj, attr, name in targets]
        for obj, attr, name, target in resolved:
            self._installed.append((obj, attr, vars(obj).get(attr, _ABSENT)))
            setattr(obj, attr, _Traced(self, name, target))

    def restore(self) -> None:
        """Put back every wrapped attribute exactly as it was found."""
        while self._installed:
            obj, attr, previous = self._installed.pop()
            if previous is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)


def self_times(spans: list[list]) -> list[float]:
    """Self time per span: its duration minus what its children cover.

    Children are clipped to the parent and merged before subtracting, so
    overlapping children (possible once a layer uses threads) are not
    counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{name: {"total", "self", "calls"}}`` summed over all spans."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        agg = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
        agg["total"] += end - start
        agg["self"] += own
        agg["calls"] += 1
    return out
