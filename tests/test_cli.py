import json
import pathlib

import pytest

from quadtrack import read_trace
from quadtrack.cli import main


@pytest.fixture
def short_scenario(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"sim": {"duration": 0.2, "decimation": 10}}))
    return path


class TestRun:
    def test_run_writes_outputs(self, tmp_path, short_scenario):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(short_scenario), "--out", str(out)])
        assert code == 0
        log = read_trace(out / "trace.csv")
        assert len(log) == 21  # 201 samples decimated by 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] is True
        assert summary["seed"] == 0
        assert summary["schema_version"] == 2
        assert set(summary["tracking_rmse"]) == {"roll", "pitch", "yaw", "x", "y", "z"}
        assert summary["scenario"]["sim"]["duration"] == 0.2
        assert len(summary["scenario_digest"]) == 64

    def test_cli_overrides(self, tmp_path, short_scenario):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(short_scenario), "--out", str(out),
                     "--duration", "0.1", "--seed", "9"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"]["sim"]["duration"] == 0.1
        assert summary["seed"] == 9

    def test_invalid_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sim": {"dt": -1.0}}))
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_guard_abort_exits_3_with_partial_outputs(self, tmp_path):
        cfg = tmp_path / "abort.json"
        cfg.write_text(json.dumps({
            "trajectory": {"type": "waypoints", "points": [[0.0, 0.0, 0.0, -100.0]]},
            "sim": {"duration": 1.0},
        }))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] is False
        assert summary["abort"]["reason"] == "DenominatorTooSmallError"
        assert (out / "trace.csv").exists()


class TestSweep:
    def test_sweep_runs_each_value(self, tmp_path, short_scenario):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(short_scenario),
                     "--vary", "gains.roll.k=100,140", "--out", str(out)])
        assert code == 0
        index = json.loads((out / "sweep.json").read_text())
        assert [run["value"] for run in index["runs"]] == [100, 140]
        for run, k in zip(index["runs"], (100, 140)):
            summary = json.loads((pathlib.Path(run["out"]) / "summary.json").read_text())
            assert summary["completed"] is True
            assert summary["scenario"]["gains"]["roll"]["k"] == k

    def test_sweep_parallel_jobs(self, tmp_path, short_scenario):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(short_scenario),
                     "--vary", "sim.seed=1,2", "--out", str(out), "--jobs", "2"])
        assert code == 0
        index = json.loads((out / "sweep.json").read_text())
        assert len(index["runs"]) == 2

    def test_sweep_bad_vary_exits_2(self, tmp_path, short_scenario):
        assert main(["sweep", "--scenario", str(short_scenario),
                     "--vary", "gains.roll.k", "--out", str(tmp_path / "s")]) == 2

    def test_sweep_invalid_value_exits_2(self, tmp_path, short_scenario):
        assert main(["sweep", "--scenario", str(short_scenario),
                     "--vary", "gains.roll.k=-5", "--out", str(tmp_path / "s")]) == 2
