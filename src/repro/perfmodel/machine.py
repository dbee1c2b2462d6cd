"""Machine descriptions: Table 1 of the paper, plus derived quantities.

One record per platform: the accelerator (:class:`GpuModel`, which the
Fig. 2 DES runs on) and the interconnect's alpha-beta model (which prices
every message of Fig. 3/4, closed form and DES alike).  Device parameters
are drawn from public device documentation and Table 1; timing constants
(launch overhead, minimum kernel time) are the commonly measured
microbenchmark values for the respective runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GpuModel",
    "A100",
    "MI250X_GCD",
    "MachineSpec",
    "LUMI",
    "LEONARDO",
    "platform_table",
    "SOFTWARE_OVERHEAD_US",
    "INTRA_ALPHA_FACTOR",
    "INTRA_BW_FACTOR",
]

#: Per-message MPI-stack + GPU-aware staging cost; also one NIC message slot.
SOFTWARE_OVERHEAD_US = 2.0
#: Share of a rank's halo bytes that stays on node-local links.
INTRA_NODE_FRACTION = 0.5
#: Node-local links (NVLink / Infinity Fabric) relative to the NIC share:
#: a quarter of the latency, ten times the bandwidth.
INTRA_ALPHA_FACTOR = 0.25
INTRA_BW_FACTOR = 10.0


@dataclass(frozen=True)
class GpuModel:
    """Timing-relevant properties of one logical GPU.

    Attributes
    ----------
    name:
        Marketing name.
    peak_bandwidth_gbs:
        HBM bandwidth per logical GPU (Table 1: 1.55 TB/s for A100-64GB,
        1.65 TB/s per MI250X GCD out of 3.3 TB/s per module).
    peak_fp64_tflops:
        Vector FP64 peak per logical GPU.
    launch_overhead_us:
        Host-side cost of one kernel launch (CUDA/HIP API call).
    submit_delay_us:
        Additional latency until the kernel is visible to the device
        scheduler.
    min_kernel_us:
        Floor on device-side kernel duration (scheduling granularity).
    requires_priority_for_concurrency:
        The paper: "This is necessary on NVIDIA GPUs to allow small
        coarse-solve kernels to progress even in the presence of already
        executing larger kernels.  This is not a concern on AMD GPUs."
    """

    name: str
    peak_bandwidth_gbs: float
    peak_fp64_tflops: float
    launch_overhead_us: float = 4.0
    submit_delay_us: float = 1.0
    min_kernel_us: float = 3.0
    requires_priority_for_concurrency: bool = True

    def kernel_duration_us(self, bytes_moved: float, flops: float = 0.0) -> float:
        """Roofline duration of one kernel in microseconds."""
        t_bw = bytes_moved / (self.peak_bandwidth_gbs * 1e9) * 1e6
        t_fl = flops / (self.peak_fp64_tflops * 1e12) * 1e6 if flops else 0.0
        return max(self.min_kernel_us, t_bw, t_fl)


# Leonardo's accelerator (Table 1): custom A100 SXM, 64 GB HBM2e.
A100 = GpuModel(
    name="NVIDIA A100",
    peak_bandwidth_gbs=1550.0,
    peak_fp64_tflops=9.7,
    launch_overhead_us=4.0,
    submit_delay_us=1.0,
    min_kernel_us=3.0,
    requires_priority_for_concurrency=True,
)

# LUMI's logical GPU (Table 1): one Graphics Compute Die of an MI250X.
MI250X_GCD = GpuModel(
    name="AMD MI250X (GCD)",
    peak_bandwidth_gbs=1650.0,  # 3300 GB/s per module, two GCDs
    peak_fp64_tflops=23.95,  # 47.9 per module
    launch_overhead_us=5.0,
    submit_delay_us=1.5,
    min_kernel_us=4.0,
    requires_priority_for_concurrency=False,
)


@dataclass(frozen=True)
class MachineSpec:
    """One experimental platform (a row set of Table 1).

    ``n_logical_gpus`` counts scheduling units as the paper does: one GCD
    on AMD MI250X, one full device on NVIDIA A100.  ``dies_per_device`` is
    how many of those units one Table 1 "device" holds.

    The interconnect is an alpha-beta model: ``alpha`` is the per-message
    latency, ``beta`` the inverse bandwidth of one GPU's share of the node
    injection bandwidth.
    """

    name: str
    device: GpuModel
    dies_per_device: int
    n_logical_gpus: int
    gpus_per_node: int
    interconnect: str
    nic_description: str
    node_injection_gbs: float  # aggregate NIC bandwidth per node, GB/s
    network_latency_us: float
    mpi: str
    compiler: str
    gpu_driver: str
    runtime: str
    rmax_pflops: float
    top500_rank_nov22: int

    @property
    def injection_per_gpu_gbs(self) -> float:
        """NIC bandwidth share of one logical GPU."""
        return self.node_injection_gbs / self.gpus_per_node

    @property
    def machine_balance_bytes_per_flop(self) -> float:
        """Memory bytes per FP64 flop at peak -- why SEM must be matrix-free."""
        return self.device.peak_bandwidth_gbs / (self.device.peak_fp64_tflops * 1e3)

    # -- alpha-beta network model -----------------------------------------------

    @property
    def alpha_us(self) -> float:
        return self.network_latency_us + SOFTWARE_OVERHEAD_US

    @property
    def beta_us_per_byte(self) -> float:
        return 1.0 / (self.injection_per_gpu_gbs * 1e9) * 1e6

    def halo_exchange_us(self, nbytes: float, n_neighbors: int = 6) -> float:
        """Gather-scatter network phase: neighbor messages, overlapping.

        Roughly half the shared faces live on intra-node links (NVLink /
        Infinity Fabric) an order of magnitude faster than the NIC share;
        the NIC-bound remainder serializes on the injection bandwidth.
        """
        if n_neighbors <= 0:
            return 0.0
        nic_bytes = nbytes * (1.0 - INTRA_NODE_FRACTION)
        intra_bytes = nbytes * INTRA_NODE_FRACTION
        beta = self.beta_us_per_byte
        return (
            self.alpha_us * np.log2(1 + n_neighbors)
            + nic_bytes * beta
            + intra_bytes * (beta / INTRA_BW_FACTOR)
        )

    def allreduce_us(self, n_ranks: int, nbytes: float = 8.0) -> float:
        """Small allreduce over ``n_ranks``.

        One software/staging overhead per call plus a hardware tree whose
        per-hop latency is the switch traversal (a quarter of the end-to-
        end message latency) -- matching the 10-20 us scale measured for
        8-byte allreduces on Slingshot/HDR class fabrics at 10k+ ranks.
        """
        if n_ranks <= 1:
            return 0.0
        hop_us = self.network_latency_us / 4.0
        hops = 2.0 * np.log2(n_ranks)
        return SOFTWARE_OVERHEAD_US + hops * hop_us + 2.0 * nbytes * self.beta_us_per_byte


# LUMI (CSC, Finland): HPE Cray EX, AMD MI250X, Slingshot 11.
LUMI = MachineSpec(
    name="LUMI",
    device=MI250X_GCD,
    # Table 1 counts 10240 MI250X *modules*; each exposes two GCDs, and the
    # paper's "logical GPUs" are GCDs (16384 GCDs = 80% of the machine).
    dies_per_device=2,
    n_logical_gpus=20480,
    gpus_per_node=8,  # 4 MI250X modules = 8 GCDs per node
    interconnect="HPE Slingshot 11",
    nic_description="200 GbE NICs (4x200 Gb/s)",
    node_injection_gbs=100.0,  # 4 x 200 Gb/s = 100 GB/s
    network_latency_us=2.0,
    mpi="Cray MPICH 8.1.18",
    compiler="CCE 14.0.2",
    gpu_driver="5.16.9.22.20",
    runtime="ROCm 5.2.3",
    rmax_pflops=309.10,
    top500_rank_nov22=3,
)

# Leonardo (CINECA, Italy): Atos BullSequana XH2000, custom A100, HDR.
LEONARDO = MachineSpec(
    name="Leonardo",
    device=A100,
    dies_per_device=1,
    n_logical_gpus=13824,
    gpus_per_node=4,
    interconnect="Nvidia HDR",
    nic_description="2x(2x100 Gb/s)",
    node_injection_gbs=50.0,  # 2 x (2 x 100 Gb/s) = 50 GB/s
    network_latency_us=1.5,
    mpi="OpenMPI 4.1.4",
    compiler="GCC 8.5.0",
    gpu_driver="520.61.05",
    runtime="CUDA 11.8",
    rmax_pflops=174.70,
    top500_rank_nov22=4,
)


def platform_table() -> str:
    """Render Table 1 ("Hardware and software details...") from the specs."""
    rows = [
        ("System", lambda m: m.name),
        ("Computing device", lambda m: m.device.name.replace(" (GCD)", "")),
        ("Peak TFlop FP64/s", lambda m: f"{m.device.peak_fp64_tflops * m.dies_per_device:g}"),
        ("Peak BW/s (GB)", lambda m: f"{m.device.peak_bandwidth_gbs * m.dies_per_device:g}"),
        ("No. devices", lambda m: str(m.n_logical_gpus // m.dies_per_device)),
        ("Interconnect", lambda m: m.interconnect),
        ("NICs", lambda m: m.nic_description),
        ("MPI", lambda m: m.mpi),
        ("Compiler", lambda m: m.compiler),
        ("GPU Driver", lambda m: m.gpu_driver),
        ("CUDA/ROCm", lambda m: m.runtime),
    ]
    machines = (LUMI, LEONARDO)
    w0 = max(len(r[0]) for r in rows)
    w = [max(len(f(m)) for r, f in rows) for m in machines]
    lines = []
    header = f"{'':{w0}} | " + " | ".join(
        f"{m.name:{wi}}" for m, wi in zip(machines, w)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, f in rows:
        lines.append(
            f"{label:{w0}} | " + " | ".join(f"{f(m):{wi}}" for m, wi in zip(machines, w))
        )
    return "\n".join(lines)
