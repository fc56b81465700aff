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
`Toggles`, each disturbance and noise kind, and `Scenario`'s sim fields) are
the schema.  Unknown fields are rejected in every section, disturbances and
trajectory included.  Types are compared exactly: `true`/`false` are not
numbers, and a number field accepts an integer (kept as given, so the digest
does not change) as long as it fits in a float.  A noise disturbance carries
its kind's fields beside its own.  Each dataclass checks every number field
against the range beside it, and that it is finite, by one rule when it is
constructed (errors.require_fields), so `dataclasses.replace` re-validates.
`Scenario` also checks across fields: the duration must be a whole number of
steps of dt, and no more than sys.maxsize steps or noise draws.
"""

import dataclasses
import functools
import hashlib
import json
import math
import sys
import typing
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .channel import ChannelGains
from .disturbances import (
    BandLimitedNoise,
    DisturbanceSpec,
    GaussianNoise,
    NoDisturbance,
    Ramp,
    SampledNoise,
    Sinusoid,
    Step,
    UniformNoise,
)
from .errors import ScenarioError, require_fields
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
    "roll": SampledNoise(GaussianNoise(sigma=0.1), hold=15.0),
    "pitch": SampledNoise(UniformNoise(low=-0.1, high=0.1), hold=15.0),
    "yaw": SampledNoise(BandLimitedNoise(power=1e-3, inner_dt=0.1), hold=1.0),
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

    Times must be strictly increasing; the position is held constant before
    the first and after the last waypoint.  Each call makes one bisection
    for all three axes into a table of per-segment slopes and returns what
    np.interp returns on each axis, bit for bit: the waypoint itself at a
    waypoint time and slope * (t - t0) + p0 inside a segment.  A table where
    a segment's time span or per-axis difference overflows is rejected, so
    that value is never NaN and np.interp's NaN retry never applies.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4 or arr.shape[0] < 1:
        raise ValueError("waypoints must be a non-empty sequence of (t, x, y, z) rows")
    if not np.isfinite(arr).all():
        raise ValueError("waypoints must be finite")
    rows = arr.tolist()
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


@dataclass(frozen=True)
class Toggles:
    position_do: bool = True            # subtract dhat in the position laws
    true_state_feedback: bool = False   # oracle mode: controller reads true states


@dataclass(frozen=True)
class Scenario:
    params: QuadrotorParams = field(default_factory=QuadrotorParams)
    gains: Dict[str, ChannelGains] = field(default_factory=_STOCK_GAINS.copy)
    trajectory: dict = field(default_factory=lambda: {"type": "helix"})
    disturbances: Dict[str, DisturbanceSpec] = field(default_factory=_STOCK_DISTURBANCES.copy)
    psi_des: float = 0.0          # yaw setpoint [rad], finite
    initial_state: Tuple[float, ...] = (0.0,) * 12
    dt: float = 1e-3              # step [s], in (0, 0.01]
    duration: float = 120.0       # [s], > 0 and a whole number of steps of dt
    seed: int = 0                 # master seed, >= 0
    decimation: int = 10          # the trace file keeps every decimation-th row, >= 1
    toggles: Toggles = field(default_factory=Toggles)

    def __post_init__(self):
        require_fields(
            self,
            dt=0.0 < self.dt <= 0.01,
            duration=self.duration > 0.0,
            seed=self.seed >= 0,
            decimation=self.decimation >= 1,
            psi_des=True,
        )
        steps = self.duration / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > STEP_COUNT_RTOL * steps:
            raise ScenarioError(
                f"duration {self.duration} is not a whole number of steps of dt {self.dt}")
        if set(self.gains) != set(CHANNELS):
            raise ScenarioError(f"gains must cover exactly {CHANNELS}")
        if set(self.disturbances) != set(CHANNELS):
            raise ScenarioError(f"disturbances must cover exactly {CHANNELS}")
        # A run allocates a log row per step and a noise draw per hold (or inner_dt).
        noise = [s for s in self.disturbances.values() if isinstance(s, SampledNoise)]
        counts = [steps, *(self.duration / s.hold for s in noise), *(
            (self.duration + s.hold) / s.kind.inner_dt
            for s in noise if isinstance(s.kind, BandLimitedNoise))]
        if max(counts) > sys.maxsize:
            raise ScenarioError(f"duration {self.duration} needs {max(counts):.3g} steps or draws")
        if len(self.initial_state) != 12:
            raise ScenarioError("initial_state must have 12 entries")
        if not all(math.isfinite(v) for v in self.initial_state):
            raise ScenarioError("initial_state must be finite numbers")
        if abs(self.initial_state[0]) >= ANGLE_LIMIT or abs(self.initial_state[2]) >= ANGLE_LIMIT:
            raise ScenarioError("initial roll/pitch outside the model validity range")
        kind = self.trajectory.get("type")
        if kind not in ("helix", "waypoints"):
            raise ScenarioError(f"unknown trajectory type: {kind!r}")
        # The scenario keeps its own copy, waypoint rows as tuples, so no caller can edit it.
        trajectory = dict(self.trajectory)
        if kind == "waypoints":
            try:
                waypoint_trajectory(trajectory.get("points", ()))
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"bad waypoints: {exc}") from exc
            trajectory["points"] = tuple(map(tuple, trajectory["points"]))
        object.__setattr__(self, "trajectory", trajectory)


# --- dict <-> dataclass plumbing -------------------------------------------

_NUMBER = frozenset({int, float})
_OBJECT = frozenset({dict})
_SEQUENCE = frozenset({list, tuple})
_TEXT = frozenset({str})
_FLOAT_MAX = sys.float_info.max

_DISTURBANCE_TAGS = {"none": NoDisturbance, "sinusoid": Sinusoid, "step": Step,
                     "ramp": Ramp, "noise": SampledNoise}
_NOISE_KIND_TAGS = {"gaussian": GaussianNoise, "uniform": UniformNoise,
                    "band_limited": BandLimitedNoise}
_TAG_OF = {cls: tag for table in (_DISTURBANCE_TAGS, _NOISE_KIND_TAGS)
           for tag, cls in table.items()}

_TRAJECTORY_TAGS = {"helix": {"type": _TEXT}, "waypoints": {"type": _TEXT, "points": _SEQUENCE}}
_SECTIONS = {"params": _OBJECT, "gains": _OBJECT, "trajectory": _OBJECT,
             "disturbances": _OBJECT, "psi_des": _NUMBER, "initial_state": _SEQUENCE,
             "sim": _OBJECT, "toggles": _OBJECT}
_CHANNEL_SECTION = dict.fromkeys(CHANNELS, _OBJECT)


@functools.cache
def _schema(cls) -> Dict[str, frozenset]:
    """Field name -> the exact value types its annotation admits (float also admits int)."""
    schema = {}
    for name, hint in typing.get_type_hints(cls).items():
        members = typing.get_args(hint) if typing.get_origin(hint) is Union else (hint,)
        schema[name] = frozenset().union(*(_NUMBER if t is float else (t,) for t in members))
    return schema


_SIM = {name: _schema(Scenario)[name] for name in ("dt", "duration", "seed", "decimation")}


def _check(value, admitted: frozenset, where: str) -> None:
    kind = type(value)
    if kind not in admitted:
        names = " or ".join(sorted(t.__name__ for t in admitted))
        raise ScenarioError(f"{where} must be {names}, got {value!r}")
    if kind is int and float in admitted and abs(value) > _FLOAT_MAX:
        raise ScenarioError(f"{where} is an integer beyond the float range")


def _checked(raw, schema: Dict[str, frozenset], what: str) -> dict:
    """raw, once it is an object whose fields are all in schema with admitted types."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{what} must be an object, got {raw!r}")
    for name, value in raw.items():
        admitted = schema.get(name)
        if admitted is None:
            raise ScenarioError(f"unknown {what} field: {name!r}")
        if type(value) not in admitted or (type(value) is int and float in admitted):
            _check(value, admitted, f"{what}.{name}")
    return raw


def _numbers(values, what: str) -> tuple:
    _check(values, _SEQUENCE, what)
    for i, v in enumerate(values):
        if type(v) is not float:
            _check(v, _NUMBER, f"{what}[{i}]")
    return tuple(values)


def _build(cls, raw, what: str, base=None):
    fields = _checked(raw, _schema(cls), what)
    try:
        return cls(**fields) if base is None else dataclasses.replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {what}: {exc}") from exc


def _tagged(table: dict, raw, key: str, what: str):
    """table's entry for the tag raw[key]; raw is already known to be an object."""
    tag = raw.get(key)
    if not (type(tag) is str and tag in table):
        raise ScenarioError(f"unknown {what} {key}: {tag!r}")
    return table[tag]


def disturbance_to_dict(spec: DisturbanceSpec) -> dict:
    out = {"type": _TAG_OF[type(spec)], **vars(spec)}
    kind = out.pop("kind", None)
    if kind is not None:
        out.update(vars(kind), kind=_TAG_OF[type(kind)])
    return out


def disturbance_from_dict(d: dict, what: str) -> DisturbanceSpec:
    cls = _tagged(_DISTURBANCE_TAGS, d, "type", what)
    fields = {name: value for name, value in d.items() if name != "type"}
    if cls is SampledNoise:
        kind_cls = _tagged(_NOISE_KIND_TAGS, d, "kind", what)
        kind_fields = {name: fields.pop(name) for name in _schema(kind_cls) if name in fields}
        fields["kind"] = _build(kind_cls, kind_fields, what)
    return _build(cls, fields, what)


def scenario_to_dict(sc: Scenario) -> dict:
    """Fully resolved configuration (all defaults expanded), JSON-ready."""
    return {
        "params": dataclasses.asdict(sc.params),
        "gains": {ch: dataclasses.asdict(sc.gains[ch]) for ch in CHANNELS},
        "trajectory": dict(sc.trajectory),
        "disturbances": {ch: disturbance_to_dict(sc.disturbances[ch]) for ch in CHANNELS},
        "psi_des": sc.psi_des,
        "initial_state": list(sc.initial_state),
        "sim": {"dt": sc.dt, "duration": sc.duration, "seed": sc.seed,
                "decimation": sc.decimation},
        "toggles": dataclasses.asdict(sc.toggles),
    }


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a validated Scenario, filling every omitted field with defaults."""
    raw = _checked(raw, _SECTIONS, "scenario")
    gains = _STOCK_GAINS.copy()
    for ch, overrides in _checked(raw.get("gains", {}), _CHANNEL_SECTION, "gains").items():
        gains[ch] = _build(ChannelGains, overrides, f"gains.{ch}", gains[ch])
    disturbances = _STOCK_DISTURBANCES.copy()
    for ch, spec in _checked(raw.get("disturbances", {}), _CHANNEL_SECTION,
                             "disturbances").items():
        disturbances[ch] = disturbance_from_dict(spec, f"disturbances.{ch}")
    trajectory = raw.get("trajectory", {"type": "helix"})
    _checked(trajectory, _tagged(_TRAJECTORY_TAGS, trajectory, "type", "trajectory"),
             "trajectory")
    for i, row in enumerate(trajectory.get("points", ())):
        _numbers(row, f"trajectory.points[{i}]")
    return Scenario(
        params=_build(QuadrotorParams, raw.get("params", {}), "params"),
        gains=gains,
        trajectory=trajectory,
        disturbances=disturbances,
        psi_des=raw.get("psi_des", 0.0),
        initial_state=_numbers(raw.get("initial_state", (0.0,) * 12), "initial_state"),
        toggles=_build(Toggles, raw.get("toggles", {}), "toggles"),
        **_checked(raw.get("sim", {}), _SIM, "sim"),
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_digest(sc: Scenario) -> str:
    """Stable hash of the resolved configuration, for run summaries."""
    canon = json.dumps(scenario_to_dict(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
