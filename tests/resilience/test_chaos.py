"""The chaos harness: campaign coverage, survival, replay, reporting."""

import json

import pytest

from repro.resilience.chaos import (
    ChaosHarness,
    ChaosScenario,
    campaign_to_dict,
    default_campaign,
    render_report,
    write_json_report,
)
from repro.resilience.chaos.__main__ import main as chaos_main
from repro.resilience.faults import Fault, FaultInjector


class TestCampaignCatalogue:
    def test_at_least_eight_scenarios(self):
        assert len(default_campaign()) >= 8

    def test_names_unique(self):
        names = [s.name for s in default_campaign()]
        assert len(set(names)) == len(names)

    def test_covers_all_required_fault_families(self):
        kinds = set()
        for s in default_campaign():
            kinds.update(s.fault_kinds())
        # Rank kill, message drop, message delay, SDC bit flip.
        assert {"rank_failure", "drop", "delay", "collective_sdc"} <= kinds
        assert "corrupt" in kinds  # p2p SDC flavour too

    def test_every_recovery_path_exercised(self):
        campaign = default_campaign()

        def scenarios(kind, recovered):
            return [
                s
                for s in campaign
                if kind in s.fault_kinds() and bool(s.expect_recoveries) == recovered
            ]

        # Warm replacement mid-CG and inside the checkpoint commit barrier.
        ops = {f.op for s in scenarios("rank_failure", True) for f in s.schedule}
        assert ops == {"allreduce", "barrier"}
        # A corrupted allreduce both rolled back and healed by recompute.
        assert scenarios("collective_sdc", True) and scenarios("collective_sdc", False)
        # Drops, stale duplicates and bit flips absorbed by retransmission.
        for kind in ("drop", "delay", "corrupt"):
            assert all(s.retry for s in scenarios(kind, False))
            assert scenarios(kind, False)


class TestScenarioRuns:
    def test_rank_kill_scenario_survives(self):
        harness = ChaosHarness(seed=11)
        scenario = ChaosScenario(
            name="kill",
            description="one rank death",
            schedule=(Fault("rank_failure", rank=1, at_call=40, op="allreduce"),),
            expect_recoveries=1,
        )
        result = harness.run_scenario(scenario)
        assert result.survived
        assert result.recoveries == 1
        assert result.nu_error <= harness.tol
        assert result.faults_fired == 1

    def test_barrier_death_replays_both_steps(self):
        # The failing checkpoint follows step 2: epoch 0 restores and
        # steps 1-2 re-run.
        (scenario,) = [
            s for s in default_campaign() if s.name == "kill-in-checkpoint-barrier"
        ]
        result = ChaosHarness().run_scenario(scenario, index=1)
        assert result.survived
        assert result.steps_replayed == 2
        (incident,) = result.incidents
        assert (incident["detected_step"], incident["epoch"]) == (2, 0)

    def test_unmet_recovery_expectation_fails_scenario(self):
        harness = ChaosHarness(seed=11)
        scenario = ChaosScenario(
            name="nothing-happens",
            description="no faults but one recovery expected",
            expect_recoveries=1,
        )
        result = harness.run_scenario(scenario)
        assert not result.survived
        assert result.recoveries == 0

    def test_scenario_runs_are_reproducible(self):
        def run():
            harness = ChaosHarness(seed=23)
            scenario = ChaosScenario(
                name="storm",
                description="drop storm",
                drop_rate=0.1,
                n_steps=3,
            )
            r = harness.run_scenario(scenario, index=2)
            return (r.nu_faulted, r.faults_fired, r.retransmissions, r.replay["events"])

        assert run() == run()

    def test_replay_log_rebuilds_identical_injector(self):
        harness = ChaosHarness(seed=7)
        scenario = ChaosScenario(
            name="targeted",
            description="targeted drop",
            schedule=(Fault("drop", at_call=50),),
            n_steps=2,
        )
        result = harness.run_scenario(scenario, index=3)
        rebuilt = FaultInjector.from_replay(result.replay)
        assert rebuilt.seed == harness.seed + 3
        assert [f.kind for f in rebuilt.schedule] == ["drop"]
        assert rebuilt.events == []  # fresh injector, history not replayed

    def test_harness_spans_registered_names_only(self):
        from repro.observability.phases import is_registered_span

        harness = ChaosHarness(seed=5)
        harness.run_scenario(
            ChaosScenario(name="plain", description="fault-free", n_steps=2)
        )
        assert [root.name for root in harness.tracer.roots] == ["chaos.scenario"]
        assert all(is_registered_span(span.name) for span in harness.tracer.walk())


class TestCampaign:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        harness = ChaosHarness(seed=31)
        scenarios = [
            ChaosScenario(
                name="kill-warm",
                description="rank death, warm replace",
                schedule=(Fault("rank_failure", rank=2, at_call=40, op="allreduce"),),
                expect_recoveries=1,
                n_steps=4,
            ),
            ChaosScenario(
                name="drop-storm",
                description="message drops",
                drop_rate=0.1,
                n_steps=4,
            ),
            ChaosScenario(
                name="kill-barrier",
                description="rank death in the checkpoint commit barrier",
                schedule=(Fault("rank_failure", rank=1, at_call=1, op="barrier"),),
                expect_recoveries=1,
                n_steps=4,
            ),
        ]
        return harness.run_campaign(scenarios)

    def test_all_scenarios_survive(self, small_campaign):
        assert small_campaign.all_survived
        assert small_campaign.survived == 3

    def test_recovery_totals_aggregate(self, small_campaign):
        assert small_campaign.total_recoveries == 2
        assert small_campaign.total_steps_replayed == sum(
            r.steps_replayed for r in small_campaign.results
        )

    def test_report_renders_every_scenario(self, small_campaign):
        text = render_report(small_campaign)
        for name in ("kill-warm", "drop-storm", "kill-barrier"):
            assert name in text
        assert "3/3 scenarios survived" in text
        assert "steps replayed" in text

    def test_json_report_round_trips(self, small_campaign, tmp_path):
        path = write_json_report(small_campaign, tmp_path / "campaign.json")
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert data == campaign_to_dict(small_campaign)
        assert data["all_survived"] is True
        assert len(data["results"]) == 3
        # Every row embeds a replayable injector record.
        assert all("seed" in r["replay"] for r in data["results"])

    def test_duplicate_scenario_names_rejected(self):
        harness = ChaosHarness(seed=1)
        s = ChaosScenario(name="dup", description="x", n_steps=1)
        with pytest.raises(ValueError, match="unique"):
            harness.run_campaign([s, s])


class TestCli:
    def test_single_scenario_run_exits_zero(self, tmp_path, capsys):
        code = chaos_main(
            [
                "--only",
                "exchange-bitflip",
                "--steps",
                "3",
                "--json",
                str(tmp_path / "report.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1/1 scenarios survived" in out
        assert (tmp_path / "report.json").exists()

    def test_steps_flag_overrides_every_scenario(self, tmp_path, monkeypatch, capsys):
        import repro.resilience.chaos.__main__ as cli

        short = ChaosScenario(name="short", description="fault-free", n_steps=2)
        monkeypatch.setattr(cli, "default_campaign", lambda: [short])
        path = tmp_path / "report.json"
        assert chaos_main(["--steps", "6", "--json", str(path)]) == 0
        capsys.readouterr()
        (row,) = json.loads(path.read_text())["results"]
        assert row["steps"] == 6

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            chaos_main(["--only", "no-such-scenario"])
