"""The A/B pair summary of ``benchmarks/ab_pairs.py`` on canned spine output."""

import json

import pytest

from benchmarks.ab_pairs import format_summary, parse_result, summarize

DECLARED = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _stdout(ops_per_s, op_ms_p50):
    result = {
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_ms_p50": {"value": op_ms_p50, "unit": "ms"},
        },
    }
    return f"# rbc_cyl_p7 seed=1\nops_per_s {ops_per_s} 1/s\n{json.dumps(result)}\n"


def test_parse_result_reads_the_last_line():
    assert parse_result(_stdout(5.0, 190.0))["metrics"]["ops_per_s"]["value"] == 5.0


def test_summary_counts_wins_in_each_metric_direction():
    # (base, head): head faster in pairs 1, 2 and 4, slower in pair 3.
    canned = [((5.0, 200.0), (6.0, 170.0)), ((4.0, 250.0), (4.5, 220.0)),
              ((6.0, 160.0), (5.5, 180.0)), ((5.0, 200.0), (6.5, 150.0))]
    pairs = [(parse_result(_stdout(*b)), parse_result(_stdout(*h))) for b, h in canned]
    rows = {r["name"]: r for r in summarize(pairs, DECLARED)}

    ops = rows["ops_per_s"]
    assert ops["wins"] == 3 and ops["pairs"] == 4
    assert ops["base"] == pytest.approx([5.0, 4.75, 5.25])  # median, q1, q3
    assert ops["head"] == pytest.approx([5.75, 5.25, 6.125])
    assert ops["ratio"] == pytest.approx(5.75 / 5.0)
    lat = rows["op_ms_p50"]
    assert lat["wins"] == 3  # lower is better
    assert lat["ratio"] == pytest.approx(175.0 / 200.0)

    table = format_summary(list(rows.values())).splitlines()
    assert len(table) == 3
    assert table[1].split()[0] == "ops_per_s" and table[1].endswith("3/4")
