"""Disturbance generators injected into the plant's acceleration rows.

Analytic shapes (sinusoid, step, ramp) are pure functions of time.  Held noise
is one dataclass per kind (GaussianNoise, UniformNoise, BandLimitedNoise), its
kind's fields followed by `hold` and `seed`.  It draws one value per hold
interval from a seeded generator and holds it constant, so re-evaluating any t
inside an interval returns the same value; that is required for the integrator
substeps.  All generators are deterministic given their seed.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import require_fields

_POSITIVE = lambda v: v > 0.0  # noqa: E731
_NONNEGATIVE = lambda v: v is None or v >= 0  # noqa: E731


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float
    omega: float          # angular frequency [rad/s]
    phase: float = 0.0

    def __post_init__(self):
        require_fields(self)


@dataclass(frozen=True)
class Step:
    value: float
    onset: float          # [s]; output is 0 before, value from onset on

    def __post_init__(self):
        require_fields(self, onset=_NONNEGATIVE)


@dataclass(frozen=True)
class Ramp:
    offset: float
    slope: float          # [1/s]
    end: float            # [s]; active on [0, end]
    hold_after: bool = False  # hold the end value instead of dropping to 0

    def __post_init__(self):
        require_fields(self, end=_NONNEGATIVE)


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float
    hold: float                 # sample-and-hold interval [s]
    seed: Optional[int] = None  # None: derived from the scenario master seed; else int >= 0

    def __post_init__(self):
        require_fields(self, sigma=_NONNEGATIVE, hold=_POSITIVE, seed=_NONNEGATIVE)


@dataclass(frozen=True)
class UniformNoise:
    low: float
    high: float
    hold: float
    seed: Optional[int] = None

    def __post_init__(self):
        # high - low scales the draws, so it must not overflow either.
        require_fields(self, high=lambda v: v >= self.low and math.isfinite(v - self.low),
                       hold=_POSITIVE, seed=_NONNEGATIVE)


@dataclass(frozen=True)
class BandLimitedNoise:
    """White sequence of variance power/inner_dt refreshed every inner_dt."""

    power: float
    inner_dt: float       # [s]
    hold: float
    seed: Optional[int] = None

    def __post_init__(self):
        # The white sequence's variance power / inner_dt must not overflow either.
        require_fields(self, power=_NONNEGATIVE,
                       inner_dt=lambda v: v > 0.0 and math.isfinite(self.power / v),
                       hold=_POSITIVE, seed=_NONNEGATIVE)


# The held-noise spec classes, for isinstance.
HELD_NOISE = (GaussianNoise, UniformNoise, BandLimitedNoise)


@dataclass(frozen=True)
class NoDisturbance:
    pass


DisturbanceSpec = Union[Sinusoid, Step, Ramp, GaussianNoise, UniformNoise, BandLimitedNoise,
                        NoDisturbance]


# A run reads its disturbances at RK4 stage times up to n dt.  The scenario's step rule
# (scenario.STEP_COUNT_RTOL) keeps n dt within 1e-9 of the duration, relatively, before
# rounding; twice that covers the rounding too.
_HORIZON_SLACK = 2e-9


def noise_draw_size(spec, horizon: float) -> Tuple[float, float]:
    """(hold boundaries, random values) that a run to `horizon` draws for held noise `spec`.

    The boundaries are those a run can read, at 0, hold, 2 hold, ... up to the horizon:
    floor(horizon (1 + 2e-9) / hold) + 1.  Band-limited noise draws its inner white
    sequence up to the last of them.  The counts are floats, inf where they overflow.
    """
    boundaries = _floor_plus_one(horizon * (1.0 + _HORIZON_SLACK) / spec.hold)
    if not isinstance(spec, BandLimitedNoise):
        return boundaries, boundaries
    return boundaries, _floor_plus_one((boundaries - 1.0) * spec.hold / spec.inner_dt)


def _floor_plus_one(x: float) -> float:
    return math.floor(x) + 1.0 if x < math.inf else math.inf


def noise_boundary_values(spec, seed, count: int) -> np.ndarray:
    """The first `count` hold-boundary values of spec's noise stream, drawn from `seed`.

    Same seed, same sequence; the caller resolves spec.seed.  Band-limited noise
    reads the outer hold to subsample its inner white sequence at the boundaries,
    and draws that sequence up to the last inner step it reads.
    """
    rng = np.random.default_rng(seed)
    if isinstance(spec, GaussianNoise):
        return rng.normal(0.0, spec.sigma, count)
    if isinstance(spec, UniformNoise):
        return rng.uniform(spec.low, spec.high, count)
    if isinstance(spec, BandLimitedNoise):
        idx = np.floor(np.arange(count) * spec.hold / spec.inner_dt).astype(int)
        white = rng.normal(0.0, math.sqrt(spec.power / spec.inner_dt), idx[-1] + 1 if count else 0)
        return white[idx]
    raise TypeError(f"unknown noise spec: {spec!r}")


class _AnalyticGenerator:
    __slots__ = ("_fn",)

    def __init__(self, fn):
        self._fn = fn

    def value(self, t: float) -> float:
        return self._fn(t)


class SampledNoiseGenerator:
    """Piecewise-constant noise, one draw per hold interval [k h, (k+1) h).

    It draws the boundaries noise_draw_size counts, so value(t) is defined on [0, horizon]
    (and the 2e-9 slack past it).  A time before 0 or past the drawn table raises IndexError.
    """

    __slots__ = ("hold", "_values")

    def __init__(self, spec, seed, horizon: float):
        self.hold = spec.hold
        try:
            values = noise_boundary_values(spec, seed, int(noise_draw_size(spec, horizon)[0]))
        except (OverflowError, ValueError) as exc:  # a valid spec, but a size no array holds
            raise MemoryError(str(exc)) from exc
        self._values = values.tolist()

    def value(self, t: float) -> float:
        if t < 0.0:  # int(t / hold) <= -1 would index the table from its end
            raise IndexError(f"held noise read at t = {t!r} s, before 0")
        return self._values[int(t / self.hold)]


def make_generator(spec: DisturbanceSpec, seed, horizon: float):
    """Build the evaluator for one channel.

    `seed` is anything np.random.default_rng accepts, such as the (scenario seed, channel
    index) entropy tuple ClosedLoop passes.  Only noise reads it, and then only when the
    spec carries no seed of its own, so an analytic channel builds no random state.
    Held noise is drawn for [0, horizon]: its value(t) before 0 or past the drawn table raises
    IndexError.
    """
    if isinstance(spec, NoDisturbance):
        return _AnalyticGenerator(lambda t: 0.0)
    if isinstance(spec, Sinusoid):
        a, w, ph = spec.amplitude, spec.omega, spec.phase
        return _AnalyticGenerator(lambda t: a * math.sin(w * t + ph))
    if isinstance(spec, Step):
        value, onset = spec.value, spec.onset
        return _AnalyticGenerator(lambda t: value if t >= onset else 0.0)
    if isinstance(spec, Ramp):
        offset, slope, end = spec.offset, spec.slope, spec.end
        tail = (offset + slope * end) if spec.hold_after else 0.0
        return _AnalyticGenerator(lambda t: offset + slope * t if t <= end else tail)
    if isinstance(spec, HELD_NOISE):
        return SampledNoiseGenerator(spec, spec.seed if spec.seed is not None else seed, horizon)
    raise TypeError(f"unknown disturbance spec: {spec!r}")
