"""The reporting rules: tail percentile, quartile spread, direction of worse."""

import statistics

import pytest

from benchmarks.spine.summary import quartile_spread, tail, worsening


@pytest.mark.parametrize("n, percentile", [(1000, 99.0), (50, 80.0), (21, 100.0 * 11 / 21)])
def test_tail_has_exactly_ten_samples_beyond_it(n, percentile):
    samples = [float(i) for i in range(n)][::-1]
    value, reported = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert reported == pytest.approx(percentile)


def test_tail_falls_back_to_the_median_below_21_samples():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0] * 4
    assert tail(samples) == (statistics.median(samples), 50.0)


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


def test_worsening_follows_the_metric_direction():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
