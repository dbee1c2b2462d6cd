"""Golden-file regression of the Fig. 3 scaling campaign.

``BENCH_scaling.json`` is a *committed* artifact: the campaign's DES step
times depend only on the mesh structure, the RCB partition and the
Table 1 machine constants, never on the host or a wall clock, so a fresh
run must reproduce the committed numbers exactly.  A drift here means the
simulated machine changed -- which is either a deliberate model change
(regenerate the baseline and say why) or a bug in the comm engine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.regen_scaling_baseline import BASELINE, regenerate
from repro.comm.campaign import (
    DEFAULT_RANKS,
    DEFAULT_SHAPE,
    MACHINES,
    ScalingCampaign,
    bench_record,
    fig3_scaling_report,
    main,
    run_fig3_campaign,
    structured_global_ids,
)


@pytest.fixture(scope="module")
def campaign_results():
    return run_fig3_campaign(DEFAULT_RANKS, shape=DEFAULT_SHAPE, lx=8)


@pytest.fixture(scope="module")
def committed():
    return json.loads(Path(BASELINE).read_text())


class TestGoldenBaseline:
    def test_fresh_campaign_matches_committed_bench(self, campaign_results, committed):
        fresh = bench_record(campaign_results, environment={})
        assert set(fresh["results"]) == set(committed["results"])
        for name, entry in fresh["results"].items():
            golden = committed["results"][name]
            for key, value in entry.items():
                if isinstance(value, float):
                    assert value == pytest.approx(golden[key], rel=1e-12), (name, key)
                else:
                    assert value == golden[key], (name, key)

    def test_committed_efficiency_anchors(self, committed):
        """Spot-check the headline numbers the docs and CI gate quote."""
        res = committed["results"]
        assert res["world16_scaling_lumi"]["efficiency"] == pytest.approx(1.0)
        assert res["world1024_scaling_lumi"]["efficiency"] < 0.05
        # Topology staging must win, and win more at scale.
        for key in MACHINES:
            speedups = [
                res[f"world{n}_scaling_{key}"]["gs_topology_speedup"]
                for n in DEFAULT_RANKS
            ]
            assert all(s > 1.0 for s in speedups)
            assert speedups[-1] > speedups[0]
        # Aggregation moves traffic off the network: far fewer inter-node
        # messages than a flat exchange would need at 1024 ranks.
        assert res["world1024_scaling_lumi"]["inter_messages"] < 2000

    def test_measured_tracks_modeled(self, committed):
        """DES efficiency and the closed-form model agree on the collapse."""
        for name, entry in committed["results"].items():
            assert entry["efficiency"] == pytest.approx(
                entry["modeled_efficiency"], rel=0.5, abs=0.02
            ), name

    def test_regeneration_round_trip(self, tmp_path, committed):
        out = regenerate(tmp_path / "BENCH_scaling.json")
        assert json.loads(out.read_text()) == committed


class TestReportStability:
    def test_report_text_stable(self, campaign_results):
        report = fig3_scaling_report(campaign_results)
        assert report.startswith(
            "fig3_scaling: simulated strong scaling, measured (DES) vs modeled"
        )
        for machine in ("LUMI", "Leonardo"):
            assert any(line.startswith(machine) for line in report.splitlines())
        # One data row per (machine, rank count), with the rank count first.
        for n in DEFAULT_RANKS:
            rows = [
                line
                for line in report.splitlines()
                if line.strip().startswith(f"{n} ")
            ]
            assert len(rows) == len(MACHINES)
        assert "msgs/dssum" in report

    def test_report_paper_scale_section(self, campaign_results):
        studies = {
            key: ScalingCampaign(machine).study for key, machine in MACHINES.items()
        }
        for study in studies.values():
            study.n_elements = 108_000_000
        report = fig3_scaling_report(campaign_results, studies=studies)
        assert "paper-scale model (Fig. 3 GPU counts, 108M-element case):" in report
        assert " 16384 GPUs" in report  # LUMI's largest Fig. 3 point


class TestCampaignPieces:
    def test_structured_ids_are_conforming(self):
        ids, cent = structured_global_ids((2, 2, 2), 3)
        assert ids.size == 8 * 27
        # A 2x2x2 grid at lx=3 is a 5^3 conforming node grid.
        assert np.unique(ids).size == 125
        assert cent.shape == (8, 3)

    def test_structured_ids_validation(self):
        with pytest.raises(ValueError):
            structured_global_ids((0, 2, 2), 3)
        with pytest.raises(ValueError):
            structured_global_ids((2, 2, 2), 1)

    def test_cli_writes_artifacts(self, tmp_path):
        out = tmp_path / "bench_out"
        rc = main(
            [
                "--out", str(out),
                "--ranks", "4,8",
                "--shape", "4x4x4",
                "--lx", "4",
                "--fleet-ranks", "4",
            ]
        )
        assert rc == 0
        record = json.loads((out / "BENCH_scaling.json").read_text())
        assert set(record["results"]) == {
            f"world{n}_scaling_{key}" for n in (4, 8) for key in MACHINES
        }
        assert (out / "fig3_scaling.txt").read_text().startswith("fig3_scaling:")
        imbalance = (out / "fig3_fleet_imbalance.txt").read_text()
        assert "per-rank phase breakdown" in imbalance
        assert "parallel efficiency" in imbalance

    def test_cli_runs_from_foreign_cwd(self, tmp_path):
        """The module needs only ``src`` on the path, not the repository root."""
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.comm.campaign",
                "--out", "out",
                "--ranks", "4,16",
                "--shape", "4x4x4",
                "--fleet-ranks", "0",
            ],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads((tmp_path / "out" / "BENCH_scaling.json").read_text())
        assert set(record["environment"]) == {"python", "numpy", "platform", "machine"}

    def test_cli_rejects_bad_shape(self):
        with pytest.raises(SystemExit):
            main(["--shape", "4x4"])
