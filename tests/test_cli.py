import concurrent.futures
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_scenario import _floats, _valid_overrides

import quadtrack
from quadtrack import CHANNELS, cli, read_trace
from quadtrack.cli import main
from quadtrack.errors import quoted


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

    def test_dt_duration_and_seed_overrides(self, tmp_path, short_scenario):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(short_scenario), "--out", str(out),
                     "--dt", "0.002", "--duration", "0.01", "--seed", "3"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 3
        assert summary["scenario"]["sim"] == {"dt": 0.002, "duration": 0.01, "seed": 3,
                                              "decimation": 10}

    def test_overrides_off_the_step_rule_exit_2(self, tmp_path, short_scenario, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(short_scenario), "--out", str(out),
                     "--duration", "0.01", "--dt", "0.003"]) == 2
        assert capsys.readouterr().err == (
            "scenario error: duration 0.01 is not a whole number of steps of dt 0.003\n")
        assert not out.exists()

    def test_invalid_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sim": {"dt": -1.0}}))
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("params, field", [
        ({"l": 5e-324, "Ix": 10.0}, "Ix"), ({"l": 5e-324, "Iy": 10.0}, "Iy"),
        ({"Iz": 1e-310}, "Iz"), ({"l": 1e308, "Ix": 1e-300}, "Ix")],
        ids=["roll-underflow", "pitch-underflow", "yaw-overflow", "roll-overflow"])
    def test_input_gain_out_of_range_exits_2_without_traceback(self, tmp_path, capsys, params,
                                                               field):
        # The torque law divides by l/Ix, l/Iy and 1/Iz; each must be finite and > 0.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": params}))
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
        message = f"bad params: QuadrotorParams.{field} out of range: {params[field]!r}"
        assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert not out.exists()

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
        assert index["vary"] == "gains.roll.k=100,140"
        assert [run["value"] for run in index["runs"]] == [100, 140]
        for run, k in zip(index["runs"], (100, 140)):
            summary = json.loads((pathlib.Path(run["out"]) / "summary.json").read_text())
            assert summary["completed"] is True
            assert summary["scenario"]["gains"]["roll"]["k"] == k

    def test_sweep_varies_the_residual_speed_pin(self, tmp_path):
        # The pin is a Scenario field, yet a file and a sweep path keep it under params.
        scenario = tmp_path / "pin.json"
        scenario.write_text(json.dumps({"sim": {"duration": 0.01}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(scenario),
                     "--vary", "params.fixed_residual_speed=0,40", "--out", str(out)]) == 0
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        for run, pinned in zip(runs, (0, 40), strict=True):
            summary = json.loads((pathlib.Path(run["out"]) / "summary.json").read_text())
            assert summary["scenario"]["params"]["fixed_residual_speed"] == pinned

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

    # An empty segment was once dropped, so gains..roll.k ran as gains.roll.k.
    @pytest.mark.parametrize("vary", ["=1", " . =1", "gains..roll.k=100", ".sim.seed=1",
                                      "sim.seed.=1"])
    def test_sweep_empty_path_segment_exits_2(self, tmp_path, short_scenario, capsys, vary):
        out = tmp_path / "s"
        assert main(["sweep", "--scenario", str(short_scenario), "--vary", vary,
                     "--out", str(out)]) == 2
        assert f"empty segment in its parameter path: {vary!r}" in capsys.readouterr().err
        assert not out.exists()

    # Each --vary once replaced the one before it, so the sweep ran only the last.
    @pytest.mark.parametrize("first, second", [("sim.seed=5", "sim.duration=0.01"),
                                               ("sim.duration=0.01", "sim.seed=5")])
    def test_sweep_repeated_vary_exits_2(self, tmp_path, short_scenario, capsys, first, second):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", str(short_scenario), "--vary", first, "--vary", second,
                  "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "argument --vary: given 2 times" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_sweep_path_through_a_value_exits_2(self, tmp_path, short_scenario, capsys):
        out = tmp_path / "s"
        assert main(["sweep", "--scenario", str(short_scenario), "--vary", "sim.dt.x=1",
                     "--out", str(out)]) == 2
        assert "cannot descend into scenario path 'sim.dt.x'" in capsys.readouterr().err
        assert not out.exists()

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


# Input that Python's json parser refuses beyond the JSON grammar: an integer of more digits
# than int() converts, and arrays nested past the recursion limit.
_HUGE_INT = "1" * 5000
_DEEP = "[" * 100_000


class TestJsonLimits:
    @pytest.mark.parametrize("text", ['{"sim": {"seed": %s}}' % _HUGE_INT,
                                      '{"gains": %s}' % _DEEP], ids=["huge-int", "deep"])
    @pytest.mark.parametrize("command", [("run",), ("sweep", "--vary", "sim.seed=1,2")],
                             ids=["run", "sweep"])
    def test_scenario_file_exits_2(self, tmp_path, capsys, text, command):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        assert main([*command, "--scenario", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: scenario file {bad} is not valid JSON")
        assert not out.exists()

    @pytest.mark.parametrize("vary", [f"sim.seed={_HUGE_INT}", f"psi_des={_DEEP[:50_000]}"],
                             ids=["huge-int", "deep"])
    def test_vary_value_exits_2_before_any_member_runs(self, tmp_path, short_scenario, capsys,
                                                       vary):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(short_scenario), "--vary", vary,
                     "--out", str(out)]) == 2
        # Kept as a string, as any piece that is no JSON, which the field refuses.
        assert capsys.readouterr().err.startswith("scenario error: Scenario.")
        assert not out.exists()


class TestLongRefusals:
    # A refused value is quoted by its first 500 characters, so the error stays one short line.
    def test_quoted_cuts_a_repr_after_500_characters(self):
        assert quoted("a" * 498) == repr("a" * 498)  # 500 characters with its quotes
        assert quoted("a" * 499) == repr("a" * 499)[:500] + "..."

    @pytest.mark.parametrize("vary, start", [
        (f"psi_des={_DEEP[:50_000]}", "Scenario.psi_des out of range: '[[["),
        (f"disturbances.roll.kind={_DEEP[:50_000]}", "unknown disturbances.roll kind: '[[["),
        (f"psi_des={_DEEP[:50_000]},{_DEEP[:50_000]}",
         "--vary values share a member directory: ['psi_des_[[["),
    ], ids=["field", "tag", "shared-directory"])
    def test_long_vary_value_exits_2_with_a_short_line(self, tmp_path, short_scenario, capsys,
                                                       vary, start):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(short_scenario), "--vary", vary,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: {start}") and err.endswith("...\n")
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert not out.exists()

    def test_long_field_name_exits_2_with_a_short_line(self, tmp_path, capsys):
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"sim": {"x" * 50_000: 1}}))
        assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: unknown sim field: 'xxx") and err.endswith("...\n")
        assert err.count("\n") == 1 and len(err.encode()) < 1024


# A valid override of 1-30 steps with any toggles, with or without an initial state: entries
# in [-1, 1], of which up to three have a magnitude of 10**U(-308, 308).
_WIDE = st.tuples(st.sampled_from([-1.0, 1.0]), _floats(-308.0, 308.0)).map(
    lambda se: se[0] * 10.0 ** se[1])
_INITIAL_STATES = st.tuples(
    st.lists(_floats(-1.0, 1.0), min_size=12, max_size=12),
    st.dictionaries(st.integers(0, 11), _WIDE, max_size=3),
).map(lambda drawn: [drawn[1].get(i, v) for i, v in enumerate(drawn[0])])
_SHORT_RUNS = st.tuples(
    _valid_overrides(), st.integers(1, 30),
    st.fixed_dictionaries({}, optional=dict.fromkeys(("position_do", "true_state_feedback"),
                                                     st.booleans())),
    st.none() | _INITIAL_STATES)


class TestRunProperty:
    @staticmethod
    def run(cfg, out):
        """main(["run", ...]) -> (exit code, stderr); an exception escapes as a traceback would."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", str(cfg), "--out", str(out)])
        return code, err.getvalue()

    # An x of 1e200 overflows numpy's arithmetic in the first step, which must stay quiet.
    @example(({"disturbances": {}, "sim": {"dt": 1e-3}}, 10, {}, [0.0] * 6 + [1e200] + [0.0] * 5))
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_SHORT_RUNS)
    def test_any_loadable_dict_runs_to_a_structured_end(self, tmp_path_factory, drawn):
        overrides, steps, toggles, initial_state = drawn
        sim = {**overrides["sim"], "duration": steps * overrides["sim"]["dt"]}
        # Band-limited noise draws about duration / inner_dt normals, whatever the hold (up to
        # 3e5 here); keep the draws that fit in memory.
        assume(all(d.get("kind") != "band_limited" or sim["duration"] <= 1e6 * d["inner_dt"]
                   for d in overrides["disturbances"].values()))
        raw = {**overrides, "sim": sim, "toggles": toggles}
        if initial_state is not None:
            raw["initial_state"] = initial_state
        root = tmp_path_factory.mktemp("run")
        cfg = root / "scenario.json"
        cfg.write_text(json.dumps(raw))
        code, err = self.run(cfg, root / "a")
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        summary = root / "a" / "summary.json"
        payload = strict_json(summary) if summary.exists() else None
        if code == 3:
            assert (payload and payload["abort"]) or err.strip()
        again = self.run(cfg, root / "b")
        assert again == (code, err.replace(str(root / "a"), str(root / "b")))
        for name in ("trace.csv", "summary.json"):
            first, second = root / "a" / name, root / "b" / name
            assert first.exists() == second.exists()
            if first.exists():
                assert first.read_bytes() == second.read_bytes()


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


# `quadtrack run argv` in a 4 GiB address space; prints its exit code and the tracemalloc peak of
# building its roll generator again, numpy.random already loaded.
_CAPPED_RUN = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 32, 1 << 32))
from quadtrack import load_scenario
from quadtrack.cli import main
from quadtrack.disturbances import make_generator
code = main(sys.argv[1:])
sc = load_scenario(sys.argv[3])
tracemalloc.start()
make_generator(sc.disturbances["roll"], (sc.seed, 0), sc.duration)
print(code, tracemalloc.get_traced_memory()[1])
"""


class TestEntryPoint:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_help_exits_0_and_lists_every_flag_with_its_help(self, command, capsys,
                                                             monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no help string wraps
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        sub = cli._build_parser()._subparsers._group_actions[0].choices[command]
        flags = [a for a in sub._actions if a.dest != "help"]
        assert flags
        for action in flags:
            assert action.help, action.option_strings
            assert f"  {action.option_strings[0]} " in out
            assert action.help in out

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

    def test_hold_past_a_short_run_exits_0_in_a_capped_address_space(self, tmp_path):
        # 1 ms of noise held for 1000 s reads one boundary, so it draws one inner normal; drawing
        # out to the next boundary, at 1000 s, asked for 1e9 normals (7.45 GiB).
        cfg = tmp_path / "long_hold.json"
        cfg.write_text(json.dumps({"sim": {"duration": 0.001}, "disturbances": {"roll": {
            "type": "noise", "kind": "band_limited", "power": 1, "inner_dt": 1e-6,
            "hold": 1000}}}))
        proc = _python("-c", _CAPPED_RUN, "run", "--scenario", cfg, "--out", tmp_path / "out",
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, peak = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0
        assert peak < 1_000_000  # bytes that building the roll generator holds at its peak

    def test_a_noise_free_run_leaves_numpy_random_unloaded(self, tmp_path):
        # Only noise reads a seed, so a run without it never imports numpy.random (about 2 MB).
        cfg = tmp_path / "quiet.json"
        cfg.write_text(json.dumps({"disturbances": dict.fromkeys(CHANNELS, {"type": "none"}),
                                   "sim": {"duration": 0.01}}))
        argv = ["run", "--scenario", str(cfg), "--out", str(tmp_path / "out")]
        proc = _python("-c", "import sys; from quadtrack.cli import main; "
                       f"print(main({argv!r}), 'numpy.random' in sys.modules)", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_importing_the_cli_leaves_the_process_pool_unloaded(self, tmp_path):
        # Only sweep --jobs N > 1 uses the pool; importing it costs every process about 2 MB.
        proc = _python("-c", "import sys, quadtrack.cli; print('concurrent.futures' in sys.modules)",
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
