"""Run configuration: defaults, JSON (de)serialization, validation.

A scenario file is JSON with the sections below; every omitted field falls
back to the stock mission (default airframe, gain table, helix trajectory,
and the six default disturbances):

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

The duration must be a whole number of steps of dt.
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from .attitude import ChannelGains
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
from .errors import ScenarioError
from .position import waypoint_trajectory
from .vehicle import QuadrotorParams

CHANNELS = ("roll", "pitch", "yaw", "x", "y", "z")

# Roll and pitch must stay this far inside +-pi/2 or the run aborts.
ANGLE_GUARD_MARGIN = 0.05

# duration/dt may sit this far (relative) from a whole number of steps.
STEP_COUNT_RTOL = 1e-9


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def default_gains() -> Dict[str, ChannelGains]:
    """Stock gain table: stiff attitude loops, slow position loops."""
    return {
        "roll": ChannelGains(p=100.0, k=120.0, lam=10.0, m2=1.0),
        "pitch": ChannelGains(p=100.0, k=120.0, lam=10.0, m2=1.0),
        "yaw": ChannelGains(p=1.0, k=10.0, lam=10.0, m2=1.0),
        "x": ChannelGains(p=0.1, k=5.0, lam=5.0, m2=0.1),
        "y": ChannelGains(p=0.1, k=5.0, lam=5.0, m2=0.1),
        "z": ChannelGains(p=0.1, k=1.0, lam=5.0, m2=0.1),
    }


def default_disturbances() -> Dict[str, DisturbanceSpec]:
    """Stock disturbance set: analytic shapes on position, held noise on attitude."""
    return {
        "roll": SampledNoise(GaussianNoise(sigma=0.1), hold=15.0),
        "pitch": SampledNoise(UniformNoise(low=-0.1, high=0.1), hold=15.0),
        "yaw": SampledNoise(BandLimitedNoise(power=1e-3, inner_dt=0.1), hold=1.0),
        "x": Sinusoid(amplitude=1.0, omega=0.1),
        "y": Step(value=1.0, onset=50.0),
        "z": Ramp(offset=0.1, slope=0.01, end=100.0),
    }


@dataclass(frozen=True)
class Toggles:
    position_do: bool = True            # subtract dhat in the position laws
    true_state_feedback: bool = False   # oracle mode: controller reads true states


@dataclass(frozen=True)
class Scenario:
    params: QuadrotorParams = field(default_factory=QuadrotorParams)
    gains: Dict[str, ChannelGains] = field(default_factory=default_gains)
    trajectory: dict = field(default_factory=lambda: {"type": "helix"})
    disturbances: Dict[str, DisturbanceSpec] = field(default_factory=default_disturbances)
    psi_des: float = 0.0
    initial_state: Tuple[float, ...] = (0.0,) * 12
    dt: float = 1e-3
    duration: float = 120.0
    seed: int = 0
    decimation: int = 10
    toggles: Toggles = field(default_factory=Toggles)

    def validate(self):
        if not (_is_real(self.dt) and 0.0 < self.dt <= 0.01):
            raise ScenarioError(f"dt must be a number in (0, 0.01], got {self.dt!r}")
        if not (_is_real(self.duration) and math.isfinite(self.duration) and self.duration > 0.0):
            raise ScenarioError(f"duration must be a number > 0, got {self.duration!r}")
        steps = self.duration / self.dt
        if abs(steps - round(steps)) > STEP_COUNT_RTOL * steps:
            raise ScenarioError(
                f"duration {self.duration} is not a whole number of steps of dt {self.dt}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ScenarioError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (isinstance(self.decimation, int) and self.decimation >= 1):
            raise ScenarioError(f"decimation must be an integer >= 1, got {self.decimation!r}")
        if not (_is_real(self.psi_des) and math.isfinite(self.psi_des)):
            raise ScenarioError(f"psi_des must be a finite number, got {self.psi_des!r}")
        if set(self.gains) != set(CHANNELS):
            raise ScenarioError(f"gains must cover exactly {CHANNELS}")
        if set(self.disturbances) != set(CHANNELS):
            raise ScenarioError(f"disturbances must cover exactly {CHANNELS}")
        if len(self.initial_state) != 12:
            raise ScenarioError("initial_state must have 12 entries")
        if not all(_is_real(v) and math.isfinite(v) for v in self.initial_state):
            raise ScenarioError("initial_state must be finite numbers")
        limit = math.pi / 2.0 - ANGLE_GUARD_MARGIN
        if abs(self.initial_state[0]) >= limit or abs(self.initial_state[2]) >= limit:
            raise ScenarioError("initial roll/pitch outside the model validity range")
        if not isinstance(self.trajectory, dict):
            raise ScenarioError(f"trajectory must be an object, got {self.trajectory!r}")
        kind = self.trajectory.get("type")
        if kind not in ("helix", "waypoints"):
            raise ScenarioError(f"unknown trajectory type: {kind!r}")
        if kind == "waypoints":
            if not self.trajectory.get("points"):
                raise ScenarioError("waypoint trajectory needs a non-empty 'points' list")
            try:
                waypoint_trajectory(self.trajectory["points"])
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"bad waypoints: {exc}") from exc
        return self


def default_scenario() -> Scenario:
    return Scenario()


# --- dict <-> dataclass plumbing -------------------------------------------

_NOISE_KIND_TAGS = {
    GaussianNoise: "gaussian",
    UniformNoise: "uniform",
    BandLimitedNoise: "band_limited",
}


def _noise_kind_to_dict(kind) -> dict:
    d = dataclasses.asdict(kind)
    d["kind"] = _NOISE_KIND_TAGS[type(kind)]
    return d


def _noise_kind_from_dict(d: dict):
    tag = d.get("kind")
    try:
        if tag == "gaussian":
            return GaussianNoise(sigma=d["sigma"])
        if tag == "uniform":
            return UniformNoise(low=d["low"], high=d["high"])
        if tag == "band_limited":
            return BandLimitedNoise(power=d["power"], inner_dt=d["inner_dt"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad noise kind spec {d!r}: {exc}") from exc
    raise ScenarioError(f"unknown noise kind: {tag!r}")


def disturbance_to_dict(spec: DisturbanceSpec) -> dict:
    if isinstance(spec, NoDisturbance):
        return {"type": "none"}
    if isinstance(spec, Sinusoid):
        return {"type": "sinusoid", "amplitude": spec.amplitude, "omega": spec.omega,
                "phase": spec.phase}
    if isinstance(spec, Step):
        return {"type": "step", "value": spec.value, "onset": spec.onset}
    if isinstance(spec, Ramp):
        return {"type": "ramp", "offset": spec.offset, "slope": spec.slope,
                "end": spec.end, "hold_after": spec.hold_after}
    if isinstance(spec, SampledNoise):
        out = {"type": "noise", "hold": spec.hold, "seed": spec.seed}
        out.update(_noise_kind_to_dict(spec.kind))
        return out
    raise TypeError(f"unknown disturbance spec: {spec!r}")


def disturbance_from_dict(d: dict) -> DisturbanceSpec:
    if not isinstance(d, dict):
        raise ScenarioError(f"disturbance spec must be an object, got {d!r}")
    tag = d.get("type")
    try:
        if tag == "none":
            return NoDisturbance()
        if tag == "sinusoid":
            return Sinusoid(amplitude=d["amplitude"], omega=d["omega"],
                            phase=d.get("phase", 0.0))
        if tag == "step":
            return Step(value=d["value"], onset=d["onset"])
        if tag == "ramp":
            return Ramp(offset=d["offset"], slope=d["slope"], end=d["end"],
                        hold_after=d.get("hold_after", False))
        if tag == "noise":
            return SampledNoise(kind=_noise_kind_from_dict(d), hold=d["hold"],
                                seed=d.get("seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad disturbance spec {d!r}: {exc}") from exc
    raise ScenarioError(f"unknown disturbance type: {tag!r}")


def scenario_to_dict(sc: Scenario) -> dict:
    """Fully resolved configuration (all defaults expanded), JSON-ready."""
    return {
        "params": dataclasses.asdict(sc.params),
        "gains": {ch: dataclasses.asdict(sc.gains[ch]) for ch in CHANNELS},
        "trajectory": sc.trajectory,
        "disturbances": {ch: disturbance_to_dict(sc.disturbances[ch]) for ch in CHANNELS},
        "psi_des": sc.psi_des,
        "initial_state": list(sc.initial_state),
        "sim": {"dt": sc.dt, "duration": sc.duration, "seed": sc.seed,
                "decimation": sc.decimation},
        "toggles": dataclasses.asdict(sc.toggles),
    }


def _merge_dataclass(cls, base, overrides: dict, what: str):
    if not isinstance(overrides, dict):
        raise ScenarioError(f"{what} must be an object, got {overrides!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(overrides) - known
    if unknown:
        raise ScenarioError(f"unknown {what} fields: {sorted(unknown)}")
    try:
        return dataclasses.replace(base, **overrides)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"bad {what}: {exc}") from exc


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be an object, got {value!r}")
    return value


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a validated Scenario, filling every omitted field with defaults."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    known = {"params", "gains", "trajectory", "disturbances", "psi_des",
             "initial_state", "sim", "toggles"}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown scenario sections: {sorted(unknown)}")

    params = _merge_dataclass(QuadrotorParams, QuadrotorParams(), raw.get("params", {}), "params")

    gains = default_gains()
    for ch, overrides in _section(raw, "gains").items():
        if ch not in gains:
            raise ScenarioError(f"unknown gains channel: {ch!r}")
        gains[ch] = _merge_dataclass(ChannelGains, gains[ch], overrides, f"gains.{ch}")

    disturbances = default_disturbances()
    for ch, spec in _section(raw, "disturbances").items():
        if ch not in disturbances:
            raise ScenarioError(f"unknown disturbance channel: {ch!r}")
        disturbances[ch] = disturbance_from_dict(spec)

    toggles = _merge_dataclass(Toggles, Toggles(), raw.get("toggles", {}), "toggles")

    sim = _section(raw, "sim")
    unknown = set(sim) - {"dt", "duration", "seed", "decimation"}
    if unknown:
        raise ScenarioError(f"unknown sim fields: {sorted(unknown)}")

    initial_state = raw.get("initial_state", (0.0,) * 12)
    if not isinstance(initial_state, (list, tuple)):
        raise ScenarioError(f"initial_state must be a list, got {initial_state!r}")

    sc = Scenario(
        params=params,
        gains=gains,
        trajectory=raw.get("trajectory", {"type": "helix"}),
        disturbances=disturbances,
        psi_des=raw.get("psi_des", 0.0),
        initial_state=tuple(initial_state),
        dt=sim.get("dt", 1e-3),
        duration=sim.get("duration", 120.0),
        seed=sim.get("seed", 0),
        decimation=sim.get("decimation", 10),
        toggles=toggles,
    )
    return sc.validate()


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_digest(sc: Scenario) -> str:
    """Stable hash of the resolved configuration, for run summaries."""
    canon = json.dumps(scenario_to_dict(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
