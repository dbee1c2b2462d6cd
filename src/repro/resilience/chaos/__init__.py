"""Chaos testing for the distributed resilience layer.

Seeded fault campaigns against the real step -- an RBC
:class:`~repro.core.simulation.Simulation` on simulated ranks: kill rank
*k* at step *s*, drop up to 20% of messages, flip a bit in an exchange
buffer or an allreduce result -- then assert the run survives and lands
on the fault-free Nusselt number.  The harness emits a survival
report, and its tracer holds each scenario's recovery
events for post-mortems.

Run the committed campaign with ``python -m repro.resilience.chaos``.
"""

from repro.resilience.chaos.harness import CampaignResult, ChaosHarness, ScenarioResult
from repro.resilience.chaos.report import (
    campaign_to_dict,
    render_report,
    write_json_report,
)
from repro.resilience.chaos.scenarios import ChaosScenario, default_campaign

__all__ = [
    "CampaignResult",
    "ChaosHarness",
    "ChaosScenario",
    "ScenarioResult",
    "campaign_to_dict",
    "default_campaign",
    "render_report",
    "write_json_report",
]
