"""Per-segment health monitoring: finite checkpoint shards and a CFL ceiling.

The divergence guard inside :meth:`Simulation.run` catches a run that has
already blown up; :class:`HealthCheck` is the earlier tripwire the
:class:`~repro.resilience.runner.ResilientRunner` consults between run
segments.  It scans the *state* the runner is about to commit (every array
of every shard finite) and the *trajectory* (CFL under a ceiling), and
returns structured :class:`HealthIssue` records the runner turns into
rollbacks.
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

    Every check scans each array of the checkpoint shards for NaN/Inf
    (the SDC detector).

    Parameters
    ----------
    cfl_max:
        Trip when a step's Courant number exceeds this.
    """

    def __init__(self, cfl_max: float = 10.0) -> None:
        self.cfl_max = cfl_max

    def check(self, shards, new_results=()) -> list[HealthIssue]:
        """Scan every array of one checkpoint's shards, then the CFL of
        ``new_results``."""
        nonfinite = [
            HealthIssue("nonfinite", name, f"{name} of shard {rank} contains NaN/Inf")
            for rank, shard in enumerate(shards)
            for name, arr in shard.items()
            if not np.all(np.isfinite(arr))
        ]
        return nonfinite + [
            HealthIssue(
                "cfl",
                "cfl",
                f"CFL {res.cfl:.3g} exceeds ceiling {self.cfl_max}",
                step=res.step,
            )
            for res in new_results
            if not np.isfinite(res.cfl) or res.cfl > self.cfl_max
        ]
