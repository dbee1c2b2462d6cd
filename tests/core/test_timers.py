"""RegionTimers coverage: nesting, re-entrancy, reset, zero-total fractions,
and the tracer coupling added by the observability layer."""

import time

import numpy as np
import pytest

from repro.core.timers import RegionTimers
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace


class TestAccumulation:
    def test_single_region_accumulates_time_and_count(self):
        timers = RegionTimers()
        with timers.region("pressure"):
            pass
        with timers.region("pressure"):
            pass
        assert timers.counts["pressure"] == 2
        assert timers.totals["pressure"] >= 0.0

    def test_nested_regions_count_time_in_both(self):
        timers = RegionTimers()
        with timers.region("outer"):
            with timers.region("inner"):
                pass
        assert timers.counts == {"outer": 1, "inner": 1}
        # Nested time is deliberately double-counted (MPI region-timer
        # semantics): the outer region contains the inner one.
        assert timers.totals["outer"] >= timers.totals["inner"]

    def test_reentrant_same_name_nesting(self):
        timers = RegionTimers()
        with timers.region("solve"):
            with timers.region("solve"):
                pass
        assert timers.counts["solve"] == 2

    def test_exception_still_accumulates(self):
        timers = RegionTimers()
        with pytest.raises(ValueError):
            with timers.region("boom"):
                raise ValueError("nope")
        assert timers.counts["boom"] == 1
        assert timers.totals["boom"] >= 0.0

    def test_total_sums_all_regions(self):
        timers = RegionTimers()
        timers.totals = {"a": 1.0, "b": 2.0}
        assert timers.total() == pytest.approx(3.0)


class TestFractions:
    def test_fractions_sum_to_one(self):
        timers = RegionTimers()
        timers.totals = {"a": 1.0, "b": 3.0}
        fr = timers.fractions()
        assert fr["a"] == pytest.approx(0.25)
        assert fr["b"] == pytest.approx(0.75)

    def test_fractions_on_zero_total_are_zero_not_nan(self):
        timers = RegionTimers()
        timers.totals = {"a": 0.0, "b": 0.0}
        assert timers.fractions() == {"a": 0.0, "b": 0.0}

    def test_fractions_empty(self):
        assert RegionTimers().fractions() == {}


class TestReset:
    def test_reset_clears_everything(self):
        timers = RegionTimers()
        with timers.region("a"):
            pass
        timers.reset()
        assert timers.totals == {} and timers.counts == {}
        assert timers.total() == 0.0

    def test_usable_after_reset(self):
        timers = RegionTimers()
        with timers.region("a"):
            pass
        timers.reset()
        with timers.region("a"):
            pass
        assert timers.counts["a"] == 1


class TestReport:
    def test_report_lists_regions_with_counts(self):
        timers = RegionTimers()
        with timers.region("pressure"):
            pass
        report = timers.report()
        assert "pressure" in report and "(1 calls)" in report

    def test_report_on_empty_timers(self):
        assert "total measured" in RegionTimers().report()


class TestTracerCoupling:
    def test_default_tracer_is_the_null_singleton(self):
        assert RegionTimers().tracer is NULL_TRACER

    def test_regions_open_spans_when_traced(self):
        tracer = Tracer()
        timers = RegionTimers(tracer=tracer)
        with timers.region("outer"):
            with timers.region("inner"):
                pass
        (inner,) = tracer.spans_named("inner")
        assert inner.parent.name == "outer"
        # Flat accumulation still happens alongside the spans.
        assert timers.counts == {"outer": 1, "inner": 1}

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        timers = RegionTimers(tracer=tracer)
        with pytest.raises(RuntimeError):
            with timers.region("boom"):
                raise RuntimeError
        assert tracer.current is None
        (span,) = tracer.spans_named("boom")
        assert span.end is not None

    def test_noop_tracer_overhead_under_2_percent(self):
        # The acceptance criterion for the observability layer: a region on
        # the default NULL_TRACER around the ax kernel costs < 2 %.  Timing
        # noise can spoil one measurement; best-of-three attempts must land
        # under the bound.
        sp = FunctionSpace(box_mesh((6, 6, 6)), 8)
        u = np.random.default_rng(0).normal(size=sp.shape)
        timers = RegionTimers()

        def bare():
            ax_helmholtz(u, sp.coef, sp.dx, 1.0, 10.0)

        def traced():
            with timers.region("ax"):
                ax_helmholtz(u, sp.coef, sp.dx, 1.0, 10.0)

        def seconds(fn):
            t0 = time.perf_counter()
            for _ in range(8):
                fn()
            return time.perf_counter() - t0

        def overhead():
            # Legs interleaved per repeat so host drift cannot bias one.
            t_bare = t_traced = float("inf")
            for _ in range(5):
                t_bare = min(t_bare, seconds(bare))
                t_traced = min(t_traced, seconds(traced))
            return t_traced / t_bare - 1.0

        bare()  # warm caches and page faults
        assert any(overhead() < 0.02 for _ in range(3)), "no-op tracer overhead >= 2%"
