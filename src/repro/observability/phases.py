"""The Fig. 4 phase registry: the one list of names in a trace.

The paper's wall-time breakdown (Fig. 4) partitions a time step into a
fixed set of phases; the observability layer reproduces that taxonomy as
span names, and every exporter, report and per-phase benchmark metric keys
on them.  A misspelled span name does not fail -- it silently opens a new
series that no tooling aggregates, which is how taxonomies rot.  This
module is therefore the single source of truth:

* instrumentation sites import the ``PHASE_*`` constants instead of
  retyping string literals;
* the ``span-hygiene`` rule of :mod:`repro.statcheck` statically checks
  every literal passed to ``Tracer.span`` / ``event`` / ``sample`` /
  ``record_span`` and ``RegionTimers.region`` against this registry, so an
  unregistered name is caught at lint time, before it pollutes a trace.

Dynamic name families (one series per solver, per study, ...) are
registered as *prefixes*: ``krylov.<solver>`` spans and so on.
"""

from __future__ import annotations

__all__ = [
    "PHASE_STEP",
    "PHASE_ADVECTION",
    "PHASE_PRESSURE",
    "PHASE_VELOCITY",
    "PHASE_TEMPERATURE",
    "PHASE_GATHER_SCATTER",
    "PHASE_STATISTICS",
    "PHASE_INSITU",
    "PHASES",
    "SPAN_PREFIXES",
    "is_registered_span",
]

# -- span taxonomy (Fig. 4) --------------------------------------------------

PHASE_STEP = "step"
PHASE_ADVECTION = "advection"
PHASE_PRESSURE = "pressure"
PHASE_VELOCITY = "velocity"
PHASE_TEMPERATURE = "temperature"
PHASE_GATHER_SCATTER = "gather_scatter"
PHASE_STATISTICS = "statistics"
PHASE_INSITU = "insitu"

#: Exact span names of the per-step phase breakdown, outermost first.
PHASES: tuple[str, ...] = (
    PHASE_STEP,
    PHASE_ADVECTION,
    PHASE_PRESSURE,
    PHASE_VELOCITY,
    PHASE_TEMPERATURE,
    PHASE_GATHER_SCATTER,
    PHASE_STATISTICS,
    PHASE_INSITU,
)

#: Registered dynamic families: a name is valid when it starts with one of
#: these prefixes.  ``krylov.`` spans wrap each linear solve
#: (``krylov.pressure``); ``sim.`` names the per-step counter samples
#: (``sim.cfl``, ``sim.dt``) and the divergence guard's ``sim.divergence``
#: event; ``resilience.`` marks the resilience event log's instants
#: (``resilience.rollback``, ``resilience.retry``, ...);
#: ``verify.`` wraps the verification subsystem's convergence studies
#: (``verify.study``, ``verify.case``); ``chaos.`` wraps the chaos-testing
#: harness's scenario runs (``chaos.campaign``, ``chaos.scenario``).
SPAN_PREFIXES: tuple[str, ...] = (
    "krylov.",
    "sim.",
    "resilience.",
    "verify.",
    "chaos.",
)


def is_registered_span(name: str) -> bool:
    """True when ``name`` is a phase or belongs to a registered family."""
    return name in PHASES or name.startswith(SPAN_PREFIXES)
