"""Survival reporting for chaos campaigns.

Renders a :class:`~repro.resilience.chaos.harness.CampaignResult` as a
fixed-width text table (what ``python -m repro.resilience.chaos`` prints
and the CI log shows) and as a JSON document (the machine-readable
artifact, embedding each scenario's injector replay log so any row can be
reproduced in isolation).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.resilience.chaos.harness import CampaignResult, ScenarioResult

__all__ = ["campaign_to_dict", "render_report", "write_json_report"]

_COLUMNS = (
    ("scenario", 26),
    ("ok", 4),
    ("faults", 7),
    ("recov", 6),
    ("replay", 7),
    ("retx", 5),
    ("nu_err", 10),
)


def _row(r: ScenarioResult) -> tuple[str, ...]:
    return (
        r.name,
        "yes" if r.survived else "NO",
        str(r.faults_fired),
        str(r.recoveries),
        str(r.steps_replayed),
        str(r.retransmissions + r.duplicates),
        f"{r.nu_error:.2e}",
    )


def render_report(campaign: CampaignResult) -> str:
    """Human-readable survival table plus campaign summary lines."""
    header = tuple(name for name, _ in _COLUMNS)
    widths = [w for _, w in _COLUMNS]
    rows = [_row(r) for r in campaign.results]
    for row in rows + [header]:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell) + 1)

    def fmt(row: tuple[str, ...]) -> str:
        return "".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()

    lines = [
        f"chaos campaign (seed {campaign.seed}): "
        f"{campaign.survived}/{len(campaign.results)} scenarios survived",
        "",
        fmt(header),
        fmt(tuple("-" * (w - 1) for w in widths)),
    ]
    lines.extend(fmt(row) for row in rows)
    lines.append("")
    lines.append(
        f"recoveries: {campaign.total_recoveries}   "
        f"steps replayed: {campaign.total_steps_replayed}"
    )
    for r in campaign.failed:
        lines.append(f"FAILED {r.name}: {r.error or f'nu_error={r.nu_error:.3e}'}")
    return "\n".join(lines)


def campaign_to_dict(campaign: CampaignResult) -> dict:
    """JSON-able campaign record (includes per-scenario replay logs)."""
    return {
        "seed": campaign.seed,
        "scenarios": len(campaign.results),
        "survived": campaign.survived,
        "all_survived": campaign.all_survived,
        "total_recoveries": campaign.total_recoveries,
        "total_steps_replayed": campaign.total_steps_replayed,
        "results": [
            {
                "name": r.name,
                "survived": r.survived,
                "steps": r.steps,
                "nu_free": r.nu_free,
                "nu_faulted": r.nu_faulted,
                "nu_error": r.nu_error,
                "recoveries": r.recoveries,
                "steps_replayed": r.steps_replayed,
                "faults_fired": r.faults_fired,
                "retransmissions": r.retransmissions,
                "duplicates": r.duplicates,
                "timeouts": r.timeouts,
                "integrity_failures": r.integrity_failures,
                "fault_kinds": list(r.fault_kinds),
                "error": r.error,
                "incidents": r.incidents,
                "replay": r.replay,
            }
            for r in campaign.results
        ],
    }


def write_json_report(campaign: CampaignResult, path: "Path | str") -> Path:
    """Write the JSON campaign record; returns the path written."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(campaign_to_dict(campaign), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out
