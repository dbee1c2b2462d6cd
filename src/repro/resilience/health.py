"""Per-step health monitoring: finite fields and a CFL ceiling.

The divergence guard inside :meth:`Simulation.run` catches a run that has
already blown up; :class:`HealthCheck` is the earlier tripwire the
:class:`~repro.resilience.runner.ResilientRunner` consults between run
segments.  It scans the *state* (every field finite) and the *trajectory*
(CFL under a ceiling), and returns structured :class:`HealthIssue`
records the runner turns into rollbacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HealthCheck", "HealthIssue"]


@dataclass
class HealthIssue:
    """One detected problem: what quantity, where, and why it trips."""

    kind: str  # "nonfinite" | "cfl"
    quantity: str
    message: str
    step: int = -1


class HealthCheck:
    """Per-segment health scan.

    Every check scans each prognostic field for NaN/Inf (the SDC
    detector).

    Parameters
    ----------
    cfl_max:
        Trip when a step's Courant number exceeds this (``None`` disables).
    """

    def __init__(self, cfl_max: float | None = 10.0) -> None:
        self.cfl_max = cfl_max

    # -- scans ------------------------------------------------------------------

    def check_state(self, sim) -> list[HealthIssue]:
        """Scan the simulation's current fields."""
        step = int(getattr(sim, "step_count", -1))
        ux, uy, uz = sim.velocity
        fields = {
            "ux": ux,
            "uy": uy,
            "uz": uz,
            "temperature": sim.temperature,
            "pressure": sim.pressure,
        }
        return [
            HealthIssue("nonfinite", name, f"{name} contains NaN/Inf", step=step)
            for name, arr in fields.items()
            if not np.all(np.isfinite(arr))
        ]

    def check_results(self, results) -> list[HealthIssue]:
        """Scan newly produced :class:`StepResult` records."""
        if self.cfl_max is None:
            return []
        return [
            HealthIssue(
                "cfl",
                "cfl",
                f"CFL {res.cfl:.3g} exceeds ceiling {self.cfl_max}",
                step=res.step,
            )
            for res in results
            if not np.isfinite(res.cfl) or res.cfl > self.cfl_max
        ]

    def check(self, sim, new_results=()) -> list[HealthIssue]:
        """Full check: state scan plus trajectory scan of ``new_results``."""
        return self.check_state(sim) + self.check_results(new_results)
