import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys

import pytest

import quadtrack
from quadtrack import cli, read_trace
from quadtrack.cli import main


@pytest.fixture
def short_scenario(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"sim": {"duration": 0.2, "decimation": 10}}))
    return path


# Loads, but a 1e14 s run needs a log of 1e17 rows: more bytes than numpy can address.
UNADDRESSABLE_LOG = {"disturbances": dict.fromkeys(("roll", "pitch", "yaw", "x", "y", "z"),
                                                   {"type": "none"}),
                     "sim": {"duration": 1e14}}
# Loads, but 120 s held for 1e-16 s is 1.2e18 draws: more bytes than numpy can address.
UNADDRESSABLE_NOISE = {"disturbances": {"roll": {"type": "noise", "kind": "gaussian",
                                                 "sigma": 0.1, "hold": 1e-16}}}


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
        assert summary["schema_version"] == 5
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

    @pytest.mark.parametrize("raw", [UNADDRESSABLE_LOG, UNADDRESSABLE_NOISE],
                             ids=["log", "noise"])
    def test_unaddressable_size_exits_3_without_traceback(self, tmp_path, capsys, raw):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("out of memory: MemoryError: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("jobs, vary, pool_size", [("8", "sim.seed=1,2", 2),
                                                       ("4", "sim.seed=1", None)])
    def test_sweep_pool_has_at_most_one_worker_per_member(self, tmp_path, short_scenario,
                                                          monkeypatch, jobs, vary, pool_size):
        # The pool starts all max_workers processes at its first submit, so --jobs is capped
        # at the member count, and a single member runs in process.  The fake starts none.
        built = []

        class InProcessPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(short_scenario), "--vary", vary,
                     "--out", str(out), "--jobs", jobs]) == 0
        assert built == ([] if pool_size is None else [pool_size])
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert all(run["completed"] for run in runs)

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

    def test_sweep_member_of_unaddressable_size_fails_alone(self, tmp_path):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(UNADDRESSABLE_LOG))
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(cfg), "--vary", "sim.duration=0.01,1e14",
                     "--out", str(out)]) == 3
        done, failed = json.loads((out / "sweep.json").read_text())["runs"]
        assert done["completed"] is True and done["value"] == 0.01
        assert failed["completed"] is False
        assert failed["error"].startswith("out of memory: MemoryError")

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


def strict_json(path):
    """Parse path as standard JSON: NaN, Infinity and -Infinity are rejected."""
    def reject(name):
        raise ValueError(f"{path} holds {name}, which standard JSON does not allow")

    return json.loads(path.read_text(), parse_constant=reject)


class TestStrictJson:
    # Rejected on the first evaluation, so no row is logged and no figure is defined.
    IMMEDIATE_ABORT = {"trajectory": {"type": "waypoints", "points": [[0.0, 0.0, 0.0, -100.0]]},
                       "sim": {"duration": 0.01}}

    def test_run_with_no_logged_row_writes_nulls(self, tmp_path):
        cfg = tmp_path / "abort.json"
        cfg.write_text(json.dumps(self.IMMEDIATE_ABORT))
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 3
        summary = strict_json(tmp_path / "out" / "summary.json")
        for key in ("tracking_rmse", "estimation_rmse", "peak_abs_error", "settle_time"):
            assert summary[key] == dict.fromkeys(("roll", "pitch", "yaw", "x", "y", "z"))
        assert summary["window"] is None

    def test_overflowed_estimation_rmse_is_null(self, tmp_path):
        # The roll HGO's logged estimates overflow r * r in compute_rmse.
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({
            "toggles": {"true_state_feedback": True}, "gains": {"roll": {"eps": 1e-45}},
            "initial_state": [0.1] + [0.0] * 11, "sim": {"duration": 0.01}}))
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 3
        summary = strict_json(tmp_path / "out" / "summary.json")
        assert summary["abort"]["reason"] == "NonFiniteError"
        assert summary["estimation_rmse"]["roll"] is None
        assert summary["estimation_rmse"]["z"] is not None

    def test_completed_run_with_null_rmse_prints_null(self, tmp_path, capsys):
        # A z of -1e200 overflows e * e in compute_rmse, but no guard fires.
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({"initial_state": [0.0] * 10 + [-1e200, 0.0],
                                   "sim": {"duration": 0.002}}))
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = strict_json(tmp_path / "out" / "summary.json")
        assert summary["completed"]
        assert [ch for ch, v in summary["tracking_rmse"].items() if v is None] == ["x", "y", "z"]
        assert "x=null  y=null  z=null" in capsys.readouterr().out

    def test_sweep_index_of_aborted_members_is_standard_json(self, tmp_path):
        cfg = tmp_path / "abort.json"
        cfg.write_text(json.dumps(self.IMMEDIATE_ABORT))
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(cfg), "--vary", "sim.seed=1,2",
                     "--out", str(out)]) == 3
        runs = strict_json(out / "sweep.json")["runs"]
        assert [run["completed"] for run in runs] == [False, False]
        assert all(set(run["tracking_rmse"].values()) == {None} for run in runs)


def _python(*args, cwd):
    """`python args` in a child process that imports this checkout's package."""
    src = pathlib.Path(quadtrack.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _module(*args, cwd):
    """`python -m quadtrack args` in a child process."""
    return _python("-m", "quadtrack", *args, cwd=cwd)


class TestEntryPoint:
    def test_run_exits_0_and_writes_outputs(self, tmp_path):
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"sim": {"duration": 0.01}}))
        proc = _module("run", "--scenario", cfg, "--out", tmp_path / "out", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "trace.csv").is_file()
        assert (tmp_path / "out" / "summary.json").is_file()

    @pytest.mark.parametrize("command", [("run",), ("sweep", "--vary", "sim.seed=1,2")],
                             ids=["run", "sweep"])
    def test_undecodable_scenario_exits_2_without_traceback(self, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        proc = _module(*command, "--scenario", bad, "--out", tmp_path / "o", cwd=tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"scenario error: scenario file {bad} is not valid JSON")

    def test_importing_the_cli_leaves_the_process_pool_unloaded(self, tmp_path):
        # Only sweep --jobs N > 1 uses the pool; importing it costs every process about 2 MB.
        proc = _python("-c", "import sys, quadtrack.cli; print('concurrent.futures' in sys.modules)",
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
