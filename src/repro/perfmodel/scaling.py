"""Strong-scaling study (Fig. 3) and its ablations."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.workmodel import SEMWorkModel

__all__ = ["ScalingPoint", "StrongScalingStudy"]


@dataclass
class ScalingPoint:
    """One point of a strong-scaling series."""

    n_gpus: int
    elements_per_gpu: float
    time_per_step_s: float
    parallel_efficiency: float


@dataclass
class StrongScalingStudy:
    """Average time per step vs. GPU count on one machine.

    Defaults match the paper's benchmark case: the 108M-element, degree-7
    RBC mesh at Ra = 1e15 ("37B unique grid points and more than 148B
    degrees of freedom").
    """

    machine: MachineSpec
    n_elements: int = 108_000_000
    work: SEMWorkModel = field(default_factory=SEMWorkModel)

    def time_per_step(self, n_gpus: int) -> float:
        """Modelled average time per step (seconds)."""
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        ne_local = self.n_elements / n_gpus
        return (
            self.work.step_time_us(ne_local, self.machine.device, self.machine, n_gpus) * 1e-6
        )

    def sweep(self, gpu_counts: list[int]) -> list[ScalingPoint]:
        """Series of scaling points with efficiencies relative to the first."""
        if not gpu_counts:
            return []
        base = min(gpu_counts)
        t_base = self.time_per_step(base)
        points = []
        for p in sorted(gpu_counts):
            t = self.time_per_step(p)
            eff = (t_base * base) / (t * p)
            points.append(
                ScalingPoint(
                    n_gpus=p,
                    elements_per_gpu=self.n_elements / p,
                    time_per_step_s=t,
                    parallel_efficiency=eff,
                )
            )
        return points

    def paper_series(self) -> list[ScalingPoint]:
        """The GPU counts of Fig. 3 for this machine."""
        if self.machine.name == "LUMI":
            return self.sweep([4096, 8192, 16384])
        return self.sweep([3456, 6912])

    def render(self, points: list[ScalingPoint]) -> str:
        """Text rendering of one scaling series."""
        lines = [
            f"{self.machine.name}: strong scaling, {self.n_elements / 1e6:.0f}M elements, "
            f"lx={self.work.lx} "
            f"({'overlapped' if self.work.overlap_preconditioner else 'serial'} preconditioner)",
            f"{'GPUs':>7} {'elem/GPU':>10} {'t/step [s]':>12} {'efficiency':>11}",
        ]
        for pt in points:
            lines.append(
                f"{pt.n_gpus:>7d} {pt.elements_per_gpu:>10.0f} "
                f"{pt.time_per_step_s:>12.4f} {pt.parallel_efficiency:>10.1%}"
            )
        return "\n".join(lines)
