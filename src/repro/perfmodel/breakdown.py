"""Wall-time distribution of one time step (Fig. 4)."""

from __future__ import annotations

from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.workmodel import SEMWorkModel

__all__ = ["walltime_breakdown", "render_breakdown"]


def walltime_breakdown(
    machine: MachineSpec,
    n_gpus: int,
    n_elements: int = 108_000_000,
    work: SEMWorkModel | None = None,
) -> dict[str, float]:
    """Fraction of the step time per phase (the Fig. 4 pie chart).

    The paper reports the 16,384-GCD LUMI configuration with pressure
    constituting more than 85% of a time step.
    """
    work = work if work is not None else SEMWorkModel()
    ne_local = n_elements / n_gpus
    costs = work.step_costs(ne_local, machine.device, machine, n_gpus)
    phases = ("pressure", "velocity", "temperature", "advection")
    totals = {k: work.phase_total_us(costs[k]) for k in phases}
    grand = sum(totals.values())
    return {k: v / grand for k, v in totals.items()}


def render_breakdown(fractions: dict[str, float], title: str = "") -> str:
    """ASCII bar rendering of a phase distribution."""
    lines = [title] if title else []
    for k, v in sorted(fractions.items(), key=lambda kv: -kv[1]):
        bar = "#" * int(round(v * 50))
        lines.append(f"  {k:<12s} {v:6.1%} |{bar}")
    return "\n".join(lines)
