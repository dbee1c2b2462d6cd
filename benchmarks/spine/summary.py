"""Sample statistics the metrics are reported with."""

from __future__ import annotations

import statistics

__all__ = ["median", "tail", "quartile_spread", "worsening"]

median = statistics.median


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` samples that is the value
    ranked ``n - 10`` (p99 for 1000 samples, p80 for 50); below 21 samples
    no percentile above the median qualifies and the median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change
