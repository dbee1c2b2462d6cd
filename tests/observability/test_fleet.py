"""Imbalance analytics over per-rank phase times, and world-total traffic."""

import numpy as np
import pytest

from repro.comm import SimWorld
from repro.observability import analyze_totals


def straggler_totals(n_ranks=4):
    """Rank 1 is a 2x straggler in the amul phase; the rest is balanced."""
    return {
        r: {"cg.amul": 2.0 if r == 1 else 1.0, "gs.local": 0.5}
        for r in range(n_ranks)
    }


class TestImbalanceReport:
    def test_fig4_style_table(self):
        report = analyze_totals(straggler_totals(4)).render()
        assert "(4 ranks)" in report
        header = report.splitlines()[1]
        for col in ("r0", "r3", "max", "mean", "min", "imbal", "strag", "cp%"):
            assert col in header
        assert "cg.amul" in report
        assert "parallel efficiency" in report

    def test_wide_world_prints_summary_columns_only(self):
        report = analyze_totals(straggler_totals(64)).render()
        assert "(64 ranks)" in report
        header = report.splitlines()[1]
        assert header.split() == ["phase", "max", "mean", "min", "imbal", "strag", "cp%"]
        assert max(len(line) for line in report.splitlines()) < 80
        amul = next(line for line in report.splitlines() if line.startswith("cg.amul"))
        assert amul.split()[5] == "1"  # the straggler column survives

    def test_deterministic_analytics_from_rank_totals(self):
        report = analyze_totals(straggler_totals(4))
        amul = report.phase("cg.amul")
        assert amul.max_seconds == pytest.approx(2.0)
        assert amul.mean_seconds == pytest.approx(1.25)
        assert amul.min_seconds == pytest.approx(1.0)
        assert amul.straggler == 1
        assert amul.imbalance == pytest.approx(1.6)
        # Phases are ordered by max time: the straggling phase leads.
        assert report.phases[0].name == "cg.amul"
        # critical path = 2.0 + 0.5; efficiency = (1.25 + 0.5) / 2.5.
        assert report.phases[0].critical_path_share == pytest.approx(0.8)
        assert report.parallel_efficiency == pytest.approx(1.75 / 2.5)
        assert report.straggler_counts()[1] == 1

    def test_analyze_totals_fills_missing_phases_with_zero(self):
        report = analyze_totals({0: {"a": 1.0}, 1: {}}, n_ranks=2)
        a = report.phase("a")
        assert a.per_rank == {0: 1.0, 1: 0.0}
        assert a.straggler == 0

    def test_efficiency_comparable_to_perfmodel_scaling(self):
        # Both definitions must agree on the ideal case: perfect balance
        # means 1.0 on each side.
        balanced = analyze_totals({0: {"a": 1.0}, 1: {"a": 1.0}}, n_ranks=2)
        assert balanced.parallel_efficiency == pytest.approx(1.0)

    def test_empty_totals_render_gracefully(self):
        report = analyze_totals({})
        assert report.phases == []
        assert "no per-rank phase times" in report.render()


class TestTrafficAccounting:
    def test_reset_clears_counters(self):
        world = SimWorld(2)
        world.exchange({(0, 1): np.zeros(8)})
        assert world.stats.p2p_messages == 1
        world.stats.reset()
        assert world.stats.p2p_messages == 0
        assert world.stats.p2p_bytes == 0
