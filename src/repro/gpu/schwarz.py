"""The Fig. 2 experiment: serial vs task-parallel additive Schwarz.

Builds the two schedules of Section 5.3 for one GPU's share of a
production-like mesh and executes them on the discrete-event simulator:

* **serial** -- one host thread, one stream: the coarse-grid solve (many
  tiny kernels, two host-blocking allreduces per CG iteration) runs before
  the fine-level FDM smoother (few large bandwidth-bound kernels).
* **task-parallel** -- two OpenMP threads, two streams; the coarse stream
  gets high priority ("to allow small coarse-solve kernels to progress
  even in the presence of already executing larger kernels").

The reduction of the Schwarz-phase wall time between the two is the
quantity the paper reports as ~20% on a 4x A100 node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.des import AllReduce, Barrier, DeviceSimulator, HostProgram, Launch, StreamSync
from repro.perfmodel.machine import A100, GpuModel

__all__ = ["SchwarzWorkload", "SchwarzPhaseResult", "SchwarzOverlapStudy"]


@dataclass
class SchwarzWorkload:
    """Per-GPU workload parameters of one Schwarz application.

    Defaults model the paper's "small test case representative of the
    strong-scaling regime of typical production workloads" on one of four
    NVLink-connected A100s: a few thousand elements per GPU at polynomial
    degree 7, a 10-iteration coarse solve, and intra-node NVLink/NCCL-free
    MPI reductions.
    """

    n_elements: int = 7000
    lx: int = 8
    coarse_iterations: int = 10
    allreduce_us: float = 6.0
    halo_bytes_per_face: float = 8.0 * 64 * 64  # one lx^2 face of doubles
    n_halo_neighbors: int = 6

    def fine_kernels(self, device: GpuModel, stream: int) -> list[Launch]:
        """Large bandwidth-bound kernels of the FDM smoother.

        The local solves act on the one-layer-extended ``(lx+2)^3`` arrays
        (the overlapping-Schwarz working set), which is what sizes the
        tensor-contraction passes.
        """
        pts = self.n_elements * (self.lx + 2) ** 3
        full_pass = 2.0 * 8.0 * pts  # read + write one field
        seq = [
            ("schwarz_mask", 1.0),
            ("fdm_apply_r", 2.0),   # in + out + operator traffic
            ("fdm_apply_s", 2.0),
            ("fdm_apply_t", 2.0),
            ("fdm_scale", 1.0),
            ("fdm_applyT_r", 2.0),
            ("fdm_applyT_s", 2.0),
            ("fdm_applyT_t", 2.0),
            ("schwarz_weight", 1.0),
            ("gs_local", 0.5),
            ("schwarz_mask2", 1.0),
        ]
        return [
            Launch(name, stream, device.kernel_duration_us(fac * full_pass), occupancy=0.85)
            for name, fac in seq
        ]

    def coarse_ops(self, device: GpuModel, stream: int, stream_aware_mpi: bool = False) -> list:
        """Launch-latency and reduction dominated coarse-solve sequence.

        With ``stream_aware_mpi`` the reductions become stream-ordered
        triggered operations (Namashivayam et al. [20]): no host-side
        stream synchronization, the communication appears as a low-
        occupancy "kernel" on the coarse stream.  The paper: "Stream-aware
        MPI approaches ... would integrate well with our approach and we
        expect these to further improve efficiency."
        """
        nv = self.n_elements  # ~one vertex dof per element on the coarse level
        small = 2.0 * 8.0 * nv

        def reduction(label: str) -> list:
            if stream_aware_mpi:
                return [
                    Launch(f"triggered_{label}", stream, self.allreduce_us, occupancy=0.02)
                ]
            return [StreamSync(stream), AllReduce(label, self.allreduce_us)]

        ops: list = [
            Launch("coarse_restrict", stream,
                   device.kernel_duration_us(2.0 * 8.0 * self.n_elements * self.lx**2),
                   occupancy=0.1),
        ]
        for _ in range(self.coarse_iterations):
            # Fused CG kernels (ax+gs, jacobi+axpy) as production coarse
            # solvers ship them; two reductions per iteration.
            ops += [
                Launch("coarse_ax_gs", stream, device.kernel_duration_us(9 * small), occupancy=0.1),
                *reduction("dot1"),
                Launch("coarse_jacobi_axpy", stream, device.kernel_duration_us(2 * small), occupancy=0.05),
                *reduction("dot2"),
                Launch("coarse_update", stream, device.kernel_duration_us(small), occupancy=0.05),
            ]
        ops.append(
            Launch("coarse_prolong", stream,
                   device.kernel_duration_us(2.0 * 8.0 * self.n_elements * self.lx**2),
                   occupancy=0.1)
        )
        return ops

    def halo_exchange_us(self, device: GpuModel) -> float:
        """Host-blocking wait for the gather-scatter halo exchange."""
        msg = self.halo_bytes_per_face * self.n_halo_neighbors
        # NVLink-ish intra-node bandwidth; latency comparable to allreduce.
        return self.allreduce_us + msg / 200e9 * 1e6


@dataclass
class SchwarzPhaseResult:
    """Outcome of one schedule variant."""

    wall_us: float
    device_busy_us: float
    simulator: DeviceSimulator = field(repr=False)

    @property
    def utilization(self) -> float:
        return self.device_busy_us / self.wall_us if self.wall_us else 0.0


class SchwarzOverlapStudy:
    """Run serial / overlapped / no-priority schedules and compare."""

    def __init__(self, device: GpuModel = A100, workload: SchwarzWorkload | None = None) -> None:
        self.device = device
        self.workload = workload if workload is not None else SchwarzWorkload()

    def _serial_program(self, applications: int) -> list[HostProgram]:
        w = self.workload
        ops: list = []
        for _ in range(applications):
            ops += w.coarse_ops(self.device, stream=0)
            ops += w.fine_kernels(self.device, stream=0)
            ops.append(StreamSync(0))
            ops.append(AllReduce("gs_halo", w.halo_exchange_us(self.device)))
        return [HostProgram(0, ops)]

    def _overlapped_programs(
        self, applications: int, stream_aware_mpi: bool = False
    ) -> list[HostProgram]:
        w = self.workload
        fine: list = []
        coarse: list = []
        for i in range(applications):
            fine += w.fine_kernels(self.device, stream=0)
            fine.append(StreamSync(0))
            fine.append(AllReduce("gs_halo", w.halo_exchange_us(self.device)))
            fine.append(Barrier(f"apply{i}"))
            coarse += w.coarse_ops(self.device, stream=1, stream_aware_mpi=stream_aware_mpi)
            coarse.append(StreamSync(1))
            coarse.append(Barrier(f"apply{i}"))
        return [HostProgram(0, fine), HostProgram(1, coarse)]

    def run_serial(self, applications: int = 1) -> SchwarzPhaseResult:
        sim = DeviceSimulator(self.device)
        wall = sim.run(self._serial_program(applications))
        return SchwarzPhaseResult(wall, sim.device_busy_time(), sim)

    def run_overlapped(
        self,
        applications: int = 1,
        priorities: bool = True,
        stream_aware_mpi: bool = False,
    ) -> SchwarzPhaseResult:
        # Without explicit stream priorities the scheduler mode falls back
        # to the device default: arrival order on NVIDIA (head-of-line
        # blocking), concurrent on AMD -- the asymmetry Section 5.3 calls
        # out.
        prio = {1: 1, 0: 0} if priorities else {}
        sim = DeviceSimulator(self.device, stream_priorities=prio)
        wall = sim.run(self._overlapped_programs(applications, stream_aware_mpi))
        return SchwarzPhaseResult(wall, sim.device_busy_time(), sim)

    def reduction(self, applications: int = 50) -> dict[str, float]:
        """Wall-time reduction of the overlapped schedule (Fig. 2's number).

        Also evaluates the paper's flagged future work: stream-aware MPI
        (triggered operations) removing the host-blocking reductions from
        the coarse path.
        """
        ser = self.run_serial(applications)
        ovl = self.run_overlapped(applications)
        nop = self.run_overlapped(applications, priorities=False)
        swm = self.run_overlapped(applications, stream_aware_mpi=True)
        return {
            "serial_us": ser.wall_us,
            "overlap_us": ovl.wall_us,
            "overlap_nopriority_us": nop.wall_us,
            "overlap_stream_aware_us": swm.wall_us,
            "reduction": 1.0 - ovl.wall_us / ser.wall_us,
            "reduction_nopriority": 1.0 - nop.wall_us / ser.wall_us,
            "reduction_stream_aware": 1.0 - swm.wall_us / ser.wall_us,
            "serial_utilization": ser.utilization,
            "overlap_utilization": ovl.utilization,
        }
