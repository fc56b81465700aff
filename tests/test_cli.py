import json
import pathlib

import pytest

from quadtrack import cli, read_trace
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
        assert summary["schema_version"] == 4
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

    def test_output_failure_exits_3(self, tmp_path, short_scenario, capsys):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the output directory should go")
        assert main(["run", "--scenario", str(short_scenario), "--out", str(blocked)]) == 3
        assert "output error" in capsys.readouterr().err

    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, short_scenario, capsys,
                                                 monkeypatch):
        def exhausted(sc):
            raise MemoryError("Unable to allocate 52.4 TiB")

        monkeypatch.setattr(cli, "run_scenario", exhausted)
        assert main(["run", "--scenario", str(short_scenario), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "out of memory: MemoryError: Unable to allocate 52.4 TiB\n"

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

    @pytest.mark.parametrize("vary", ["sim.seed=1,1", "psi_des=1e0,1.0"])
    def test_sweep_values_sharing_a_directory_exit_2(self, tmp_path, short_scenario, capsys,
                                                      vary):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(short_scenario), "--vary", vary,
                     "--out", str(out)]) == 2
        assert "share a member directory" in capsys.readouterr().err
        assert not out.exists()  # rejected before any member ran

    def test_sweep_bad_vary_exits_2(self, tmp_path, short_scenario):
        assert main(["sweep", "--scenario", str(short_scenario),
                     "--vary", "gains.roll.k", "--out", str(tmp_path / "s")]) == 2

    def test_sweep_invalid_value_exits_2(self, tmp_path, short_scenario):
        assert main(["sweep", "--scenario", str(short_scenario),
                     "--vary", "gains.roll.k=-5", "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_member_output_failure_keeps_the_others(self, tmp_path, short_scenario, jobs):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "gains_roll_k_100").write_text("a file where the member directory should go")
        code = main(["sweep", "--scenario", str(short_scenario),
                     "--vary", "gains.roll.k=100,140", "--out", str(out), "--jobs", jobs])
        assert code == 3
        failed, done = json.loads((out / "sweep.json").read_text())["runs"]
        assert failed["completed"] is False and "FileExistsError" in failed["error"]
        assert done["completed"] is True and done["value"] == 140
        assert (pathlib.Path(done["out"]) / "summary.json").exists()

    def test_sweep_member_out_of_memory_keeps_the_others(self, tmp_path, short_scenario,
                                                         monkeypatch):
        run = cli.run_scenario

        def exhausted_on_seed_1(sc):
            if sc.seed == 1:
                raise MemoryError("Unable to allocate 52.4 TiB")
            return run(sc)

        monkeypatch.setattr(cli, "run_scenario", exhausted_on_seed_1)
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(short_scenario), "--vary", "sim.seed=1,2",
                     "--out", str(out)]) == 3
        failed, done = json.loads((out / "sweep.json").read_text())["runs"]
        assert failed["completed"] is False
        assert failed["error"].startswith("out of memory: MemoryError")
        assert done["completed"] is True and done["value"] == 2
        assert (pathlib.Path(done["out"]) / "summary.json").exists()

    def test_sweep_output_root_blocked_exits_3(self, tmp_path, short_scenario, capsys):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the sweep directory should go")
        assert main(["sweep", "--scenario", str(short_scenario),
                     "--vary", "sim.seed=1", "--out", str(blocked)]) == 3
        assert "output error" in capsys.readouterr().err

    def test_sweep_index_write_failure_exits_3(self, tmp_path, short_scenario, capsys):
        out = tmp_path / "sweep"
        (out / "sweep.json").mkdir(parents=True)
        assert main(["sweep", "--scenario", str(short_scenario), "--vary", "sim.seed=1,2",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert (out / "sim_seed_2" / "summary.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_sweep_jobs_below_one_exits_2(self, tmp_path, short_scenario, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", str(short_scenario), "--vary", "sim.seed=1,2",
                  "--out", str(tmp_path / "s"), "--jobs", jobs])
        assert exc.value.code == 2
        assert not (tmp_path / "s").exists()
