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
        # the default NULL_TRACER costs < 2 % of the ax kernel it wraps.
        # Timing the kernel with and without the region resolves a few
        # microseconds as the difference of two ~2 ms times; on a loaded
        # host, where the kernel's BLAS threads get preempted, that
        # difference is noise and the check flaked.  So the two parts are
        # timed apart, each as its fastest of 15 interleaved repeats: load
        # only ever adds time, and what it adds to the kernel only makes
        # the ratio smaller.
        sp = FunctionSpace(box_mesh((6, 6, 6)), 8)
        u = np.random.default_rng(0).normal(size=sp.shape)
        timers = RegionTimers()

        def kernel():
            ax_helmholtz(u, sp.coef, sp.dx, 1.0, 10.0)

        def region():
            with timers.region("ax"):
                pass

        def per_call(fn, calls):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            return (time.perf_counter() - t0) / calls

        kernel()  # warm caches and page faults
        t_kernel = t_region = float("inf")
        for _ in range(15):
            t_kernel = min(t_kernel, per_call(kernel, 8))
            t_region = min(t_region, per_call(region, 1000))
        overhead = t_region / t_kernel
        assert overhead < 0.02, (
            f"no-op region costs {1e6 * t_region:.1f} us, {overhead:.2%} "
            f"of the {1e3 * t_kernel:.2f} ms ax kernel"
        )
