"""Run configuration: defaults, JSON (de)serialization, validation.

A scenario file is JSON with the sections below; every omitted field falls
back to the stock mission (default airframe, gain table, helix trajectory,
and the six default disturbances), which lives here with the reference
trajectories (reference_trajectory, waypoint_trajectory):

    {
      "params":       {"m": 0.65, "Ix": 7.5e-3, ...},
      "gains":        {"roll": {"p": 100, "k": 120, ...}, ...},
      "trajectory":   {"type": "helix"}
                      | {"type": "waypoints", "points": [[t, x, y, z], ...]},
      "disturbances": {"x": {"type": "sinusoid", "amplitude": 1.0, ...},
                       "z": {"type": "ramp", ..., "hold_after": false},
                       "roll": {"type": "noise", "kind": "gaussian", ...},
                       "yaw": {"type": "none"}, ...},
      "psi_des":      0.0,
      "initial_state": [12 floats],
      "sim":          {"dt": 0.001, "duration": 120.0, "seed": 0,
                       "decimation": 10},
      "toggles":      {"position_do": true, "true_state_feedback": false}
    }

The field annotations of the dataclasses (`QuadrotorParams`, `ChannelGains`,
each disturbance, and `Scenario`, whose own fields the `sim` and `toggles`
sections set) are the schema; the `params` section maps onto `QuadrotorParams`
plus one `Scenario` field, `fixed_residual_speed`.  Each dataclass checks every
field by one rule when it is built (errors.require_fields), so a file, a direct
build and `dataclasses.replace` meet the same checks in the same order: the
type, exactly (`true`/`false` are no numbers, a float is no integer, and a
number field keeps an integer that fits a float as given, so the digest does not
change), then that every float in it is finite, then the range noted beside the
field.  The loader only maps sections onto constructors, and rejects unknown
tags and fields in every section; a noise disturbance is its kind's dataclass
(`GaussianNoise`, `UniformNoise` or `BandLimitedNoise`, with `hold` and `seed`),
whose `type` and `kind` tags live only in the file.  `Scenario` holds the
trajectory as `waypoints`: (t, x, y, z) rows, or None for the helix, whose
`{"type": ...}` tag lives only in the file.  It keeps tuple copies of the rows
and of `initial_state`, which no caller can edit, and checks across fields: the
duration must be a whole number of steps of dt, and needs no more than
sys.maxsize steps, nor noise draws for any channel, counted as a run draws them
(disturbances.noise_draw_size).
"""

import dataclasses
import hashlib
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .channel import ChannelGains
from .disturbances import (
    BandLimitedNoise,
    DisturbanceSpec,
    GaussianNoise,
    HELD_NOISE,
    NoDisturbance,
    Ramp,
    Sinusoid,
    Step,
    UniformNoise,
    noise_draw_size,
)
from .errors import ScenarioError, quoted, require_fields
from .vehicle import ANGLE_LIMIT, QuadrotorParams

CHANNELS = ("roll", "pitch", "yaw", "x", "y", "z")

# duration/dt may sit this far (relative) from a whole number of steps.
STEP_COUNT_RTOL = 1e-9


# Stock tables, built and checked once; their values are frozen, so scenarios share them.
_STOCK_GAINS = {  # stiff attitude loops, slow position loops
    "roll": ChannelGains(p=100.0, k=120.0, lam=10.0, m2=1.0),
    "pitch": ChannelGains(p=100.0, k=120.0, lam=10.0, m2=1.0),
    "yaw": ChannelGains(p=1.0, k=10.0, lam=10.0, m2=1.0),
    "x": ChannelGains(p=0.1, k=5.0, lam=5.0, m2=0.1),
    "y": ChannelGains(p=0.1, k=5.0, lam=5.0, m2=0.1),
    "z": ChannelGains(p=0.1, k=1.0, lam=5.0, m2=0.1),
}
_STOCK_DISTURBANCES = {  # analytic shapes on position, held noise on attitude
    "roll": GaussianNoise(sigma=0.1, hold=15.0),
    "pitch": UniformNoise(low=-0.1, high=0.1, hold=15.0),
    "yaw": BandLimitedNoise(power=1e-3, inner_dt=0.1, hold=1.0),
    "x": Sinusoid(amplitude=1.0, omega=0.1),
    "y": Step(value=1.0, onset=50.0),
    "z": Ramp(offset=0.1, slope=0.01, end=100.0),
}


def reference_trajectory(t: float):
    """Built-in mission: a 3 m radius circle at 1/15 rad/s with a 0.1 m/s climb."""
    return (
        3.0 - 3.0 * math.cos(t / 15.0),
        2.0 + 3.0 * math.sin(t / 15.0),
        1.0 + 0.1 * t,
    )


def waypoint_trajectory(points: Sequence[Sequence[float]]):
    """Piecewise-linear trajectory through (t, x, y, z) rows.

    Each entry is read as float(v), and times must be strictly increasing;
    the position is held constant before the first and after the last
    waypoint.  Each call makes one bisection for all three axes into a table
    of per-segment slopes and returns what np.interp returns on each axis,
    bit for bit: the waypoint itself at a waypoint time and
    slope * (t - t0) + p0 inside a segment.  A table where a segment's time
    span or per-axis difference overflows is rejected, so that value is never
    NaN and np.interp's NaN retry never applies.
    """
    try:
        rows = [[float(v) for v in row] for row in points]
    except TypeError:  # points or a row is no sequence, or an entry no number
        rows = None
    if not rows or any(len(row) != 4 for row in rows):
        raise ValueError("waypoints must be a non-empty sequence of (t, x, y, z) rows")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("waypoints must be finite")
    # Per segment j: row[j+1] - row[j], the time span then the three axis differences.
    steps = [[b - a for a, b in zip(r0, r1)] for r0, r1 in zip(rows, rows[1:])]
    if any(step[0] <= 0.0 for step in steps):
        raise ValueError("waypoint times must be strictly increasing")
    if not all(math.isfinite(v) for step in steps for v in step):
        raise ValueError("waypoint segment spans and differences must be finite")
    times = [row[0] for row in rows]
    pts = [tuple(row[1:]) for row in rows]
    # Per segment and axis: difference / span, as np.interp computes the slope.
    slopes = [tuple(d / span for d in diffs) for span, *diffs in steps]
    last = len(times) - 1

    def trajectory(t: float):
        j = bisect_right(times, t) - 1
        if j < 0:
            return pts[0]
        if j == last or t == times[j]:
            return pts[j]
        (x0, y0, z0), (sx, sy, sz) = pts[j], slopes[j]
        h = t - times[j]
        return sx * h + x0, sy * h + y0, sz * h + z0

    return trajectory


# The Scenario fields the file's sim section sets, with the range of each, and those of toggles.
_SIM = {"dt": lambda v: 0.0 < v <= 0.01, "duration": lambda v: v > 0.0,
        "seed": lambda v: v >= 0, "decimation": lambda v: v >= 1}
_TOGGLES = ("position_do", "true_state_feedback")


@dataclass(frozen=True)
class Scenario:
    params: QuadrotorParams = field(default_factory=QuadrotorParams)
    gains: Dict[str, ChannelGains] = field(default_factory=_STOCK_GAINS.copy)
    waypoints: Optional[Tuple[Tuple[float, ...], ...]] = None  # (t, x, y, z) rows; None: helix
    disturbances: Dict[str, DisturbanceSpec] = field(default_factory=_STOCK_DISTURBANCES.copy)
    psi_des: float = 0.0          # yaw setpoint [rad], finite
    initial_state: Tuple[float, ...] = (0.0,) * 12
    dt: float = 1e-3              # step [s], in (0, 0.01]
    duration: float = 120.0       # [s], > 0 and a whole number of steps of dt
    seed: int = 0                 # master seed, >= 0
    decimation: int = 10          # the trace file keeps every decimation-th row, >= 1
    position_do: bool = True      # subtract dhat in the position laws
    true_state_feedback: bool = False  # oracle mode: controller reads true states
    # None: residual propeller speed is computed from the rotor speeds with
    # the alternating-sign convention.  A float pins it to that constant.
    fixed_residual_speed: Optional[float] = None

    def __post_init__(self):
        require_fields(self, **_SIM)
        steps = self.duration / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > STEP_COUNT_RTOL * steps:
            raise ScenarioError(
                f"duration {self.duration} is not a whole number of steps of dt {self.dt}")
        if set(self.gains) != set(CHANNELS):
            raise ScenarioError(f"gains must cover exactly {CHANNELS}")
        if set(self.disturbances) != set(CHANNELS):
            raise ScenarioError(f"disturbances must cover exactly {CHANNELS}")
        # A run allocates a log row per step, and per noise channel the draws noise_draw_size
        # counts: a value per hold boundary, and band-limited noise its inner sequence.
        counts = [steps, *(n for s in self.disturbances.values() if isinstance(s, HELD_NOISE)
                           for n in noise_draw_size(s, self.duration))]
        if max(counts) > sys.maxsize:
            raise ScenarioError(f"duration {self.duration} needs {max(counts):.3g} steps or draws")
        object.__setattr__(self, "initial_state", tuple(self.initial_state))
        if len(self.initial_state) != 12:
            raise ScenarioError("initial_state must have 12 entries")
        if abs(self.initial_state[0]) >= ANGLE_LIMIT or abs(self.initial_state[2]) >= ANGLE_LIMIT:
            raise ScenarioError("initial roll/pitch outside the model validity range")
        if self.waypoints is not None:
            rows = tuple(map(tuple, self.waypoints))
            try:
                waypoint_trajectory(rows)
            except ValueError as exc:
                raise ScenarioError(f"bad waypoints: {exc}") from exc
            object.__setattr__(self, "waypoints", rows)


# --- dict <-> dataclass plumbing -------------------------------------------

# A noise disturbance's class is named by its "kind"; "noise" itself names none.
_DISTURBANCE_TAGS = {"none": NoDisturbance, "sinusoid": Sinusoid, "step": Step,
                     "ramp": Ramp, "noise": None}
_NOISE_KIND_TAGS = {"gaussian": GaussianNoise, "uniform": UniformNoise,
                    "band_limited": BandLimitedNoise}
_TAG_OF = {cls: tag for table in (_DISTURBANCE_TAGS, _NOISE_KIND_TAGS)
           for tag, cls in table.items() if cls}

_TRAJECTORY_TAGS = {"helix": {"type"}, "waypoints": {"type", "points"}}
_SECTIONS = {"params", "gains", "trajectory", "disturbances", "psi_des", "initial_state",
             "sim", "toggles"}


def _object(raw, what: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{what} must be an object, got {quoted(raw)}")
    return raw


def _checked(raw, names, what: str) -> dict:
    """raw, once it is an object whose fields are all in names."""
    for name in _object(raw, what):
        if name not in names:
            raise ScenarioError(f"unknown {what} field: {quoted(name)}")
    return raw


def _build(cls, raw, what: str, base=None):
    fields = _checked(raw, cls.__dataclass_fields__, what)
    try:
        return cls(**fields) if base is None else dataclasses.replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {what}: {exc}") from exc


def _tagged(table: dict, raw, key: str, what: str):
    """table's entry for the tag raw[key]."""
    tag = _object(raw, what).get(key)
    if not (type(tag) is str and tag in table):
        raise ScenarioError(f"unknown {what} {key}: {quoted(tag)}")
    return table[tag]


def disturbance_to_dict(spec: DisturbanceSpec) -> dict:
    if isinstance(spec, HELD_NOISE):
        return {"type": "noise", "kind": _TAG_OF[type(spec)], **vars(spec)}
    return {"type": _TAG_OF[type(spec)], **vars(spec)}


def disturbance_from_dict(d: dict, what: str) -> DisturbanceSpec:
    cls = _tagged(_DISTURBANCE_TAGS, d, "type", what) or _tagged(_NOISE_KIND_TAGS, d, "kind", what)
    tags = ("type", "kind") if cls in HELD_NOISE else ("type",)
    return _build(cls, {name: value for name, value in d.items() if name not in tags}, what)


def scenario_to_dict(sc: Scenario) -> dict:
    """Fully resolved configuration (all defaults expanded), JSON-ready."""
    return {
        "params": {**dataclasses.asdict(sc.params),
                   "fixed_residual_speed": sc.fixed_residual_speed},
        "gains": {ch: dataclasses.asdict(sc.gains[ch]) for ch in CHANNELS},
        "trajectory": ({"type": "helix"} if sc.waypoints is None
                       else {"type": "waypoints", "points": sc.waypoints}),
        "disturbances": {ch: disturbance_to_dict(sc.disturbances[ch]) for ch in CHANNELS},
        "psi_des": sc.psi_des,
        "initial_state": list(sc.initial_state),
        "sim": {name: getattr(sc, name) for name in _SIM},
        "toggles": {name: getattr(sc, name) for name in _TOGGLES},
    }


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a validated Scenario, filling every omitted field with defaults."""
    raw = _checked(raw, _SECTIONS, "scenario")
    gains = _STOCK_GAINS.copy()
    for ch, overrides in _checked(raw.get("gains", {}), CHANNELS, "gains").items():
        gains[ch] = _build(ChannelGains, overrides, f"gains.{ch}", gains[ch])
    disturbances = _STOCK_DISTURBANCES.copy()
    for ch, spec in _checked(raw.get("disturbances", {}), CHANNELS, "disturbances").items():
        disturbances[ch] = disturbance_from_dict(spec, f"disturbances.{ch}")
    trajectory = raw.get("trajectory", {"type": "helix"})
    _checked(trajectory, _tagged(_TRAJECTORY_TAGS, trajectory, "type", "trajectory"),
             "trajectory")
    params = dict(_object(raw.get("params", {}), "params"))
    fixed_residual_speed = params.pop("fixed_residual_speed", None)
    return Scenario(
        params=_build(QuadrotorParams, params, "params"),
        gains=gains,
        waypoints=None if trajectory["type"] == "helix" else trajectory.get("points", ()),
        disturbances=disturbances,
        psi_des=raw.get("psi_des", 0.0),
        initial_state=raw.get("initial_state", (0.0,) * 12),
        **_checked(raw.get("sim", {}), _SIM, "sim"),
        **_checked(raw.get("toggles", {}), _TOGGLES, "toggles"),
        fixed_residual_speed=fixed_residual_speed,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a huge int, deep nesting
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_digest(sc: Scenario) -> str:
    """Stable hash of the resolved configuration, for run summaries."""
    canon = json.dumps(scenario_to_dict(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
