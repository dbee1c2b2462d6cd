"""Load-imbalance analytics over per-rank phase timings.

Strong scaling dies by imbalance: Fig. 3's efficiency loss at 16,384 GCDs
is, per Offermans et al., exactly the gap between the mean and the max of
the per-rank phase times -- every collective waits for the slowest rank.
This module turns a plain ``{rank: {phase: seconds}}`` mapping (the
campaign's per-rank DES busy times) into the Fig. 4-style per-rank
breakdown:

* per-phase **max/mean/min** across ranks and the **straggler** rank;
* the **imbalance factor** ``max / mean`` (1.0 = perfectly balanced);
* each phase's **critical-path share** -- its max-across-ranks time as a
  fraction of the summed per-phase critical path;
* a **parallel-efficiency estimate** ``sum(mean) / sum(max)`` -- the
  fraction of the critical path doing average work, directly comparable
  to :class:`repro.perfmodel.scaling.ScalingPoint.parallel_efficiency`
  (both are 1.0 for perfect balance and degrade with stragglers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["PhaseImbalance", "ImbalanceReport", "analyze_totals"]

#: Widest world whose per-rank columns :meth:`ImbalanceReport.render` prints.
MAX_RANK_COLUMNS = 8


@dataclass
class PhaseImbalance:
    """Cross-rank statistics of one phase."""

    name: str
    per_rank: dict[int, float]
    critical_path_share: float = math.nan

    @property
    def max_seconds(self) -> float:
        return max(self.per_rank.values()) if self.per_rank else math.nan

    @property
    def min_seconds(self) -> float:
        return min(self.per_rank.values()) if self.per_rank else math.nan

    @property
    def mean_seconds(self) -> float:
        vals = list(self.per_rank.values())
        return sum(vals) / len(vals) if vals else math.nan

    @property
    def straggler(self) -> int:
        """Rank with the largest total (lowest rank wins ties)."""
        if not self.per_rank:
            return -1
        return min(self.per_rank, key=lambda r: (-self.per_rank[r], r))

    @property
    def imbalance(self) -> float:
        """``max / mean`` across ranks; 1.0 means perfectly balanced."""
        mean = self.mean_seconds
        return self.max_seconds / mean if mean > 0 else math.nan


@dataclass
class ImbalanceReport:
    """Per-phase imbalance table plus fleet-level summary numbers."""

    phases: list[PhaseImbalance] = field(default_factory=list)
    n_ranks: int = 0

    @property
    def parallel_efficiency(self) -> float:
        """``sum(mean) / sum(max)`` over phases.

        The fraction of the critical path (every phase waits for its
        slowest rank) that average-rank work accounts for; comparable to
        the model-side ``ScalingPoint.parallel_efficiency``.
        """
        tot_max = sum(p.max_seconds for p in self.phases)
        tot_mean = sum(p.mean_seconds for p in self.phases)
        return tot_mean / tot_max if tot_max > 0 else math.nan

    def phase(self, name: str) -> PhaseImbalance:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(f"no phase {name!r} in the report")

    def straggler_counts(self) -> dict[int, int]:
        """``{rank: number of phases it straggles}`` (worst rank first)."""
        counts: dict[int, int] = {}
        for p in self.phases:
            if p.per_rank:
                counts[p.straggler] = counts.get(p.straggler, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def render(self) -> str:
        """Fig. 4-style text table: imbalance stats per phase.

        Per-rank seconds are printed only for worlds of up to
        ``MAX_RANK_COLUMNS`` ranks; wider worlds get the summary columns
        alone, so a line stays readable at any rank count.
        """
        lines = [f"== per-rank phase breakdown ({self.n_ranks} ranks) =="]
        if not self.phases:
            lines.append("(no per-rank phase times)")
            return "\n".join(lines)
        name_w = max(len(p.name) for p in self.phases)
        name_w = max(name_w, len("phase"))
        shown = range(self.n_ranks if self.n_ranks <= MAX_RANK_COLUMNS else 0)
        rank_cols = "".join(f"{'r' + str(r):>10s}" for r in shown)
        lines.append(
            f"{'phase':<{name_w}s}{rank_cols}{'max':>10s}{'mean':>10s}{'min':>10s}"
            f"{'imbal':>7s}{'strag':>6s}{'cp%':>6s}"
        )
        for p in self.phases:
            per_rank = "".join(f"{p.per_rank.get(r, 0.0):>10.4f}" for r in shown)
            lines.append(
                f"{p.name:<{name_w}s}{per_rank}"
                f"{p.max_seconds:>10.4f}{p.mean_seconds:>10.4f}{p.min_seconds:>10.4f}"
                f"{p.imbalance:>7.2f}{p.straggler:>6d}"
                f"{100.0 * p.critical_path_share:>6.1f}"
            )
        lines.append(
            f"parallel efficiency (sum mean / sum max): "
            f"{100.0 * self.parallel_efficiency:.1f}%"
        )
        stragglers = self.straggler_counts()
        if stragglers:
            worst, n = next(iter(stragglers.items()))
            lines.append(f"worst straggler: rank {worst} ({n}/{len(self.phases)} phases)")
        return "\n".join(lines)


def analyze_totals(
    per_rank: dict[int, dict[str, float]], n_ranks: int | None = None
) -> ImbalanceReport:
    """Imbalance report from plain ``{rank: {phase: seconds}}`` totals.

    Ranks missing a phase count as 0.0 seconds for it -- a rank that never
    entered a phase *is* the imbalance story, not a gap in the data.
    """
    ranks = sorted(per_rank)
    size = n_ranks if n_ranks is not None else (max(ranks) + 1 if ranks else 0)
    names = sorted({name for totals in per_rank.values() for name in totals})
    phases = [
        PhaseImbalance(
            name=name,
            per_rank={r: float(per_rank.get(r, {}).get(name, 0.0)) for r in range(size)},
        )
        for name in names
    ]
    critical_path = sum(p.max_seconds for p in phases)
    for p in phases:
        p.critical_path_share = p.max_seconds / critical_path if critical_path > 0 else math.nan
    phases.sort(key=lambda p: -p.max_seconds)
    return ImbalanceReport(phases=phases, n_ranks=size)
