"""Span bookkeeping: self time, wrapper install/restore."""

import pytest

from benchmarks.spine.spans import SpanTracer, aggregate, self_times


def test_self_time_subtracts_nested_children_once():
    spans = [
        ["step", 0.0, 10.0, -1],
        ["solve", 1.0, 7.0, 0],
        ["amul", 2.0, 4.0, 1],   # grandchild: covered by "solve", not subtracted twice
        ["stats", 8.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0 - 1.0, 6.0 - 2.0, 2.0, 1.0])


def test_self_time_merges_overlapping_children():
    spans = [
        ["step", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 3.0, 8.0, 0],      # overlaps "a": the union [1, 8] is covered
        ["c", 4.0, 4.5, 0],      # inside both
        ["late", 9.0, 12.0, 0],  # runs past the parent: clipped to [9, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_aggregate_sums_by_name():
    spans = [["step", 0.0, 4.0, -1], ["gs", 1.0, 2.0, 0], ["gs", 2.5, 3.0, 0]]
    agg = aggregate(spans)
    assert agg["gs"] == {"total": pytest.approx(1.5), "self": pytest.approx(1.5), "calls": 2}
    assert agg["step"]["self"] == pytest.approx(2.5)


class _Smoother:
    weight = 2.0

    def __call__(self, x):
        return self.weight * x


class _Solver:
    def __init__(self):
        self.precond = _Smoother()      # instance attribute holding a callable object

    def solve(self, x):                 # plain method, found on the class
        return self.precond(x) + 1.0


def test_install_records_parent_links_and_restore_leaves_no_trace():
    solver = _Solver()
    smoother = solver.precond
    before = dict(vars(solver))
    tracer = SpanTracer()
    tracer.install([(solver, "solve", "solve"), (solver, "precond", "precond")])
    assert tracer.installed
    assert solver.precond.weight == 2.0          # attribute reads fall through
    assert solver.solve(3.0) == 7.0
    tracer.restore()

    assert not tracer.installed
    assert vars(solver) == before and solver.precond is smoother
    assert "solve" not in vars(solver)           # the method is the class's again
    assert [(s[0], s[3]) for s in tracer.spans] == [("solve", -1), ("precond", 0)]
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert solver.solve(3.0) == 7.0 and len(tracer.spans) == 2


def test_span_closes_when_the_call_raises():
    tracer = SpanTracer()
    with pytest.raises(ZeroDivisionError):
        tracer.call("bad", lambda: 1 / 0)
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    tracer.call("next", lambda: None)
    assert tracer.spans[1][3] == -1              # not parented to the failed span
