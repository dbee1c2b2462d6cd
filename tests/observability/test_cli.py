"""The ``python -m repro.observability`` CLI: flight."""

import json

from repro.observability import FlightRecorder
from repro.observability.cli import main


class TestFlight:
    def make_bundle(self, tmp_path):
        from types import SimpleNamespace

        rec = FlightRecorder(capacity=4, out_dir=tmp_path)
        for s in range(1, 6):
            rec.record_step(SimpleNamespace(), SimpleNamespace(step=s, time=s * 0.1, cfl=0.2))
        rec.record_event("resilience.rollback", step=5, detail="rolled back")
        return rec.dump(reason="manual")

    def test_summary_output(self, tmp_path, capsys):
        path = self.make_bundle(tmp_path)
        assert main(["flight", str(path)]) == 0
        out = capsys.readouterr().out
        assert "steps 2..5" in out
        assert "[resilience.rollback]" in out

    def test_json_output_parses(self, tmp_path, capsys):
        path = self.make_bundle(tmp_path)
        assert main(["flight", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["header"]["reason"] == "manual"
        assert len(data["frames"]) == 4
        assert data["events"][0]["event"] == "resilience.rollback"

    def test_missing_bundle_exits_2(self, tmp_path, capsys):
        assert main(["flight", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().out
