"""Every run mode, recorded once and replayed exactly.

Each mode below is a scenario file's contents.  The test runs it with run_scenario, writes
trace.csv (every decimation-th row) and summary.json with write_trace and write_summary, as
`quadtrack run` does, and compares with tests/data/modes.json: the SHA-256 of the full-rate
log, of trace.csv and of summary.json, `completed`, `clamp_events` and the abort exactly, and
the per-channel tracking and estimation RMSEs within the benchmark's rmse_rtol.  A seed sweep
runs through `quadtrack sweep`, and every file it writes is digested.

The digests depend on libm and numpy, so the file records the Python and numpy versions it
was made with, and a digest mismatch names them beside the running ones.  Re-record with

    PYTHONPATH=src python tests/test_modes.py

A change that moves a recorded value re-records, and says which modes moved and why.
"""

import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from quadtrack import cli, run_scenario, scenario_from_dict, write_summary, write_trace

RECORDING = Path(__file__).resolve().parent / "data" / "modes.json"
TOLERANCE = json.loads((Path(__file__).resolve().parent.parent / "quadbench" / "design.json")
                       .read_text())["tolerance"]

_POINTS = [[0.0, 0.0, 0.0, 1.0], [0.4, 0.5, 0.0, 1.2], [0.8, 0.5, 0.5, 1.4]]
_WAYPOINTS = {
    "params": {"fixed_residual_speed": 0.0},
    "trajectory": {"type": "waypoints", "points": _POINTS},
    "disturbances": dict.fromkeys(("roll", "pitch", "yaw", "x", "y", "z"), {
        "type": "noise", "kind": "gaussian", "sigma": 0.05, "hold": 0.05}),
}


def _everywhere(spec, duration=0.5):
    """The stock scenario with spec on all six channels."""
    channels = ("roll", "pitch", "yaw", "x", "y", "z")
    return {"disturbances": dict.fromkeys(channels, spec), "sim": {"duration": duration}}


MODES = {
    "stock": {"sim": {"duration": 0.5}},
    "oracle": {"toggles": {"true_state_feedback": True}, "sim": {"duration": 1.0}},
    "pinned_speed": {"params": {"fixed_residual_speed": 40.0}, "sim": {"duration": 1.0}},
    "position_do_off": {"toggles": {"position_do": False}, "sim": {"duration": 1.0}},
    "waypoints_oracle_noise": {**_WAYPOINTS, "toggles": {"true_state_feedback": True},
                               "sim": {"duration": 1.0, "seed": 7}},
    # 312 evaluations clamp a rotor speed.
    "roll_rate_clamps": {"initial_state": [0.0, 20.0] + [0.0] * 10, "sim": {"duration": 0.1}},
    # A 100 m dive asks for less than free fall at t = 0.
    "free_fall_abort": {"trajectory": {"type": "waypoints", "points": [[0.0, 0.0, 0.0, -100.0]]},
                        "sim": {"duration": 1.0}},
    # The roll HGO overflows; under oracle feedback the whole-state check stops the run.
    "eps_oracle_abort": {"toggles": {"true_state_feedback": True},
                         "gains": {"roll": {"eps": 1e-100}},
                         "initial_state": [0.1] + [0.0] * 11, "sim": {"duration": 0.01}},
    # Started near the roll limit with a roll step of 200, roll leaves the guard's range at
    # t = 0.028; the other five channels carry no disturbance.
    "angle_guard_abort": {"disturbances": {
        **dict.fromkeys(("pitch", "yaw", "x", "y", "z"), {"type": "none"}),
        "roll": {"type": "step", "value": 200.0, "onset": 0.0}},
        "initial_state": [1.45] + [0.0] * 11, "sim": {"duration": 0.1}},
    "sinusoid": _everywhere({"type": "sinusoid", "amplitude": 0.5, "omega": 20.0,
                             "phase": 0.3}),
    "step": _everywhere({"type": "step", "value": 0.5, "onset": 0.2}),
    "ramp_hold_after": _everywhere({"type": "ramp", "offset": 0.1, "slope": 2.0, "end": 0.25,
                                    "hold_after": True}),
    "uniform": _everywhere({"type": "noise", "kind": "uniform", "low": -0.3, "high": 0.2,
                            "hold": 0.01}),
    "band_limited": _everywhere({"type": "noise", "kind": "band_limited", "power": 1e-4,
                                 "inner_dt": 1e-3, "hold": 0.01}),
    # Each attitude channel draws from a seed of its own, not from the master seed.
    "seeded_noise": {"disturbances": {
        "roll": {"type": "noise", "kind": "gaussian", "sigma": 0.05, "hold": 0.01, "seed": 11},
        "pitch": {"type": "noise", "kind": "uniform", "low": -0.05, "high": 0.05, "hold": 0.01,
                  "seed": 12},
        "yaw": {"type": "noise", "kind": "band_limited", "power": 1e-4, "inner_dt": 1e-3,
                "hold": 0.01, "seed": 13}}, "sim": {"duration": 0.5}},
}
# Run as `quadtrack sweep --scenario <this> --vary <VARY> --out sweep` from an empty directory.
SWEEP = {**_WAYPOINTS, "sim": {"duration": 0.2}}
VARY = "sim.seed=0,1,2"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe_mode(raw: dict, out: Path) -> dict:
    """What the recording holds for one mode, run with its outputs written into out."""
    sc = scenario_from_dict(raw)
    log, metrics = run_scenario(sc)
    write_trace(log, out / "trace.csv", decimation=sc.decimation)
    summary = write_summary(metrics, sc, out / "summary.json")
    return {
        "completed": summary["completed"],
        "clamp_events": summary["clamp_events"],
        "abort": summary["abort"],
        "tracking_rmse": summary["tracking_rmse"],
        "estimation_rmse": summary["estimation_rmse"],
        "sha256": {"log": _sha256(np.ascontiguousarray(log.data).tobytes()),
                   "trace.csv": _sha256((out / "trace.csv").read_bytes()),
                   "summary.json": _sha256((out / "summary.json").read_bytes())},
    }


def observe_sweep() -> dict:
    """Exit code and the digest of every file the sweep writes, keyed by its path under out.

    The sweep runs in the current directory with a relative --out, because sweep.json stores
    each member's directory as given.
    """
    Path("sweep_base.json").write_text(json.dumps(SWEEP))
    code = cli.main(["sweep", "--scenario", "sweep_base.json", "--vary", VARY,
                     "--out", "sweep"])
    out = Path("sweep")
    return {"exit": code,
            "sha256": {path.relative_to(out).as_posix(): _sha256(path.read_bytes())
                       for path in sorted(out.rglob("*")) if path.is_file()}}


def _recorded() -> dict:
    return json.loads(RECORDING.read_text())


def _check_digests(got: dict, want: dict, what: str, recorded: dict):
    if got != want:
        moved = sorted(key for key in set(got) | set(want) if got.get(key) != want.get(key))
        pytest.fail(f"{what}: digests of {moved} differ from the recording, made under Python "
                    f"{recorded['python']} and numpy {recorded['numpy']}; this run has Python "
                    f"{platform.python_version()} and numpy {np.__version__}")


def test_the_recording_covers_every_mode():
    assert set(_recorded()["modes"]) == set(MODES)


@pytest.mark.parametrize("name", MODES)
def test_mode_replays_its_recording(name, tmp_path):
    recorded = _recorded()
    want = recorded["modes"][name]
    got = observe_mode(MODES[name], tmp_path)
    for key in ("completed", "clamp_events", "abort"):
        assert got[key] == want[key], (name, key)
    for key in ("tracking_rmse", "estimation_rmse"):
        assert got[key].keys() == want[key].keys(), (name, key)
        for ch, value in want[key].items():
            # None: the RMSE was not finite, and summary.json wrote null.
            assert (got[key][ch] is None if value is None else math.isclose(
                got[key][ch], value, rel_tol=TOLERANCE["rmse_rtol"],
                abs_tol=TOLERANCE["rmse_atol"])), (name, key, ch, got[key][ch], value)
    _check_digests(got["sha256"], want["sha256"], name, recorded)


def test_sweep_replays_its_recording(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = _recorded()
    got = observe_sweep()
    assert got["exit"] == recorded["sweep"]["exit"]
    _check_digests(got["sha256"], recorded["sweep"]["sha256"], f"sweep --vary {VARY}", recorded)


def record():
    """Run every mode and the sweep in a scratch directory and rewrite the recording."""
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            modes = {}
            for name, raw in MODES.items():
                Path(name).mkdir()
                modes[name] = observe_mode(raw, Path(name))
            sweep = observe_sweep()
        finally:
            os.chdir(here)
    RECORDING.write_text(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                                     "modes": modes, "sweep": sweep}, indent=2) + "\n")
    print(f"recorded {len(modes)} modes and the sweep into {RECORDING}", file=sys.stderr)


if __name__ == "__main__":
    record()
