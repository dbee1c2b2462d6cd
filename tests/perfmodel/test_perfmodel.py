"""Tests for the machine, network and scaling models."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.comm import CommCostModel, CommRound, NodeTopology
from repro.perfmodel import (
    LEONARDO,
    LUMI,
    SEMWorkModel,
    StrongScalingStudy,
    platform_table,
    walltime_breakdown,
)
from repro.perfmodel.breakdown import render_breakdown

SRC = Path(__file__).resolve().parents[2] / "src"

#: Table 1 as the paper prints it: the peaks and device counts derived
#: from the device record must reproduce it character for character.
TABLE1 = "\n".join([
    "                  | LUMI                      | Leonardo      ",
    "--------------------------------------------------------------",
    "System            | LUMI                      | Leonardo      ",
    "Computing device  | AMD MI250X                | NVIDIA A100   ",
    "Peak TFlop FP64/s | 47.9                      | 9.7           ",
    "Peak BW/s (GB)    | 3300                      | 1550          ",
    "No. devices       | 10240                     | 13824         ",
    "Interconnect      | HPE Slingshot 11          | Nvidia HDR    ",
    "NICs              | 200 GbE NICs (4x200 Gb/s) | 2x(2x100 Gb/s)",
    "MPI               | Cray MPICH 8.1.18         | OpenMPI 4.1.4 ",
    "Compiler          | CCE 14.0.2                | GCC 8.5.0     ",
    "GPU Driver        | 5.16.9.22.20              | 520.61.05     ",
    "CUDA/ROCm         | ROCm 5.2.3                | CUDA 11.8     ",
])


def _message_us(machine, nbytes):
    """One non-leader inter-node message (ranks 1 -> 5 of two 4-rank nodes)."""
    model = CommCostModel(machine, topology=NodeTopology(8, 4))
    edge = CommRound("p2p", np.array([1]), np.array([5]), np.array([nbytes]))
    return float(model.edge_costs_us(edge)[0])


class TestMachineSpecs:
    def test_table1_values(self):
        # Straight from the paper's Table 1: per-device peaks are the
        # logical GPU's times the dies it holds, exactly.
        assert LUMI.device.peak_fp64_tflops * LUMI.dies_per_device == 47.9
        assert LUMI.device.peak_bandwidth_gbs * LUMI.dies_per_device == 3300.0
        assert LUMI.n_logical_gpus // LUMI.dies_per_device == 10240
        assert LUMI.interconnect == "HPE Slingshot 11"
        assert LUMI.mpi == "Cray MPICH 8.1.18"
        assert LUMI.runtime == "ROCm 5.2.3"
        assert LEONARDO.device.peak_fp64_tflops * LEONARDO.dies_per_device == 9.7
        assert LEONARDO.device.peak_bandwidth_gbs * LEONARDO.dies_per_device == 1550.0
        assert LEONARDO.n_logical_gpus == 13824
        assert LEONARDO.compiler == "GCC 8.5.0"
        assert LEONARDO.runtime == "CUDA 11.8"

    def test_rank_and_rmax(self):
        assert LUMI.top500_rank_nov22 == 3
        assert LEONARDO.top500_rank_nov22 == 4
        assert LUMI.rmax_pflops > LEONARDO.rmax_pflops

    def test_lumi_gcd_counting(self):
        # 16384 GCDs = 80% of the machine (the paper's largest run).
        assert 16384 / LUMI.n_logical_gpus == pytest.approx(0.80)
        # Leonardo runs used 25% and 50%.
        assert 3456 / LEONARDO.n_logical_gpus == pytest.approx(0.25)
        assert 6912 / LEONARDO.n_logical_gpus == pytest.approx(0.50)

    def test_machine_balance(self):
        # Both machines are strongly bandwidth-starved per flop (< 0.2 B/F),
        # the paper's argument for matrix-free methods.
        assert LUMI.machine_balance_bytes_per_flop < 0.2
        assert LEONARDO.machine_balance_bytes_per_flop < 0.2

    def test_platform_table_contains_rows(self):
        txt = platform_table()
        for token in ("LUMI", "Leonardo", "Slingshot", "Cray MPICH", "CUDA 11.8", "47.9"):
            assert token in txt

    def test_platform_table_rendering_unchanged(self):
        assert platform_table() == TABLE1

    def test_machine_module_loads_no_simulator(self):
        # The Table 1 record is a leaf: the DES and the rank engine import
        # it, never the other way round.
        code = (
            "import sys, repro.perfmodel.machine; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('repro.gpu', 'repro.comm'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"


class TestNetworkModel:
    """The alpha-beta network model of the machine record."""

    def test_message_latency_floor(self):
        assert _message_us(LUMI, 0) == LUMI.alpha_us

    def test_message_bandwidth_term(self):
        t_small = _message_us(LUMI, 10**3)
        t_big = _message_us(LUMI, 10**7)
        assert t_big > t_small * 10

    def test_allreduce_grows_logarithmically(self):
        t1k = LUMI.allreduce_us(1024)
        t16k = LUMI.allreduce_us(16384)
        assert t16k > t1k
        # log growth: 16x more ranks adds a constant, not a factor.
        assert t16k < 2 * t1k

    def test_allreduce_magnitude(self):
        # 8-byte allreduce at 16k ranks on Slingshot: O(10-20 us).
        assert 5.0 < LUMI.allreduce_us(16384) < 40.0

    def test_single_rank_no_cost(self):
        assert LUMI.allreduce_us(1) == 0.0

    def test_halo_intra_node_discount(self):
        # All bytes on the NIC share, six neighbors' latencies overlapping.
        nic_only = LUMI.alpha_us * np.log2(7) + 1e6 * LUMI.beta_us_per_byte
        assert LUMI.halo_exchange_us(1e6) < nic_only


class TestWorkModel:
    def test_traffic_scales_linearly_with_elements(self):
        w = SEMWorkModel()
        m1, c1 = w.pressure_traffic(1000)
        m2, c2 = w.pressure_traffic(2000)
        assert m2 == pytest.approx(2 * m1)
        assert c2 == pytest.approx(2 * c1)

    def test_schwarz_extended_arrays_cost_more(self):
        w = SEMWorkModel(lx=8)
        assert w.schwarz_passes() > 11.0

    def test_step_costs_structure(self):
        w = SEMWorkModel()
        costs = w.step_costs(7000, LUMI.device, LUMI, 16384)
        assert set(costs) >= {"pressure", "velocity", "temperature", "advection"}
        for c in costs.values():
            assert c.compute_us >= 0 and c.halo_us >= 0

    def test_overlap_reduces_pressure_time(self):
        w_on = SEMWorkModel(overlap_preconditioner=True)
        w_off = SEMWorkModel(overlap_preconditioner=False)
        t_on = w_on.step_time_us(7000, LUMI.device, LUMI, 16384)
        t_off = w_off.step_time_us(7000, LUMI.device, LUMI, 16384)
        assert t_on < t_off


class TestScaling:
    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            StrongScalingStudy(LUMI).time_per_step(0)

    def test_fig3_lumi_near_perfect(self):
        pts = StrongScalingStudy(LUMI).paper_series()
        assert [p.n_gpus for p in pts] == [4096, 8192, 16384]
        # Paper: "close to perfect parallel efficiency".
        assert pts[-1].parallel_efficiency > 0.85
        assert pts[1].parallel_efficiency > 0.92
        # < 7000 elements per logical GPU at the largest run.
        assert pts[-1].elements_per_gpu < 7000

    def test_fig3_leonardo_near_perfect(self):
        pts = StrongScalingStudy(LEONARDO).paper_series()
        assert [p.n_gpus for p in pts] == [3456, 6912]
        assert pts[-1].parallel_efficiency > 0.9

    def test_overlap_ablation_degrades_efficiency(self):
        on = StrongScalingStudy(LUMI).paper_series()
        off = StrongScalingStudy(
            LUMI, work=SEMWorkModel(overlap_preconditioner=False)
        ).paper_series()
        assert off[-1].parallel_efficiency < on[-1].parallel_efficiency - 0.05

    def test_times_decrease_with_gpus(self):
        pts = StrongScalingStudy(LUMI).sweep([2048, 4096, 8192, 16384])
        ts = [p.time_per_step_s for p in pts]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_render(self):
        st = StrongScalingStudy(LUMI)
        txt = st.render(st.sweep([4096, 8192]))
        assert "LUMI" in txt and "efficiency" in txt


class TestBreakdown:
    def test_fig4_pressure_dominates(self):
        fr = walltime_breakdown(LUMI, 16384)
        assert fr["pressure"] > 0.85  # the paper's ">85%"
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_breakdown_orders(self):
        fr = walltime_breakdown(LUMI, 16384)
        assert fr["pressure"] > fr["velocity"] > fr["temperature"]

    def test_render_breakdown(self):
        txt = render_breakdown(walltime_breakdown(LEONARDO, 6912), "Leonardo")
        assert "pressure" in txt and "%" in txt
