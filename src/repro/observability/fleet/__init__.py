"""Crash flight recorder and per-rank imbalance analytics.

* :mod:`~repro.observability.fleet.imbalance` -- per-phase max/mean/min
  across ranks, straggler identification, critical-path shares and a
  parallel-efficiency estimate comparable to ``perfmodel.scaling``, over
  the per-rank DES busy times of a scaling-campaign point;
* :mod:`~repro.observability.fleet.flight` -- the bounded crash flight
  recorder dumped atomically on divergence, retry-budget exhaustion,
  signals and armed exceptions.

Inspect bundles with ``python -m repro.observability flight``.
"""

from repro.observability.fleet.flight import (
    FLIGHT_DIR_ENV,
    FlightBundle,
    FlightFrame,
    FlightRecorder,
)
from repro.observability.fleet.imbalance import (
    ImbalanceReport,
    PhaseImbalance,
    analyze_totals,
)

__all__ = [
    "ImbalanceReport",
    "PhaseImbalance",
    "analyze_totals",
    "FlightRecorder",
    "FlightFrame",
    "FlightBundle",
    "FLIGHT_DIR_ENV",
]
