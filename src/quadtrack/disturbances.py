"""Disturbance generators injected into the plant's acceleration rows.

Analytic shapes (sinusoid, step, ramp) are pure functions of time.  Sampled
noise draws one value per hold interval from a seeded generator and holds it
constant, so re-evaluating any t inside an interval returns the same value;
that is required for the integrator substeps.  All generators are
deterministic given their seed.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import require_fields


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float
    omega: float          # angular frequency [rad/s]
    phase: float = 0.0

    def __post_init__(self):
        require_fields(self, amplitude=True, omega=True, phase=True)


@dataclass(frozen=True)
class Step:
    value: float
    onset: float          # [s]; output is 0 before, value from onset on

    def __post_init__(self):
        require_fields(self, value=True, onset=self.onset >= 0.0)


@dataclass(frozen=True)
class Ramp:
    offset: float
    slope: float          # [1/s]
    end: float            # [s]; active on [0, end]
    hold_after: bool = False  # hold the end value instead of dropping to 0

    def __post_init__(self):
        require_fields(self, offset=True, slope=True, end=self.end >= 0.0)


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float

    def __post_init__(self):
        require_fields(self, sigma=self.sigma >= 0.0)


@dataclass(frozen=True)
class UniformNoise:
    low: float
    high: float

    def __post_init__(self):
        require_fields(self, low=True, high=self.high >= self.low)


@dataclass(frozen=True)
class BandLimitedNoise:
    """White sequence of variance power/inner_dt refreshed every inner_dt."""

    power: float
    inner_dt: float       # [s]

    def __post_init__(self):
        require_fields(self, power=self.power >= 0.0, inner_dt=self.inner_dt > 0.0)


NoiseKind = Union[GaussianNoise, UniformNoise, BandLimitedNoise]


@dataclass(frozen=True)
class SampledNoise:
    kind: NoiseKind
    hold: float                 # sample-and-hold interval [s]
    seed: Optional[int] = None  # None: derived from the scenario master seed; else int >= 0

    def __post_init__(self):
        require_fields(self, hold=self.hold > 0.0)
        if self.seed is not None:
            require_fields(self, seed=type(self.seed) is int and self.seed >= 0)


@dataclass(frozen=True)
class NoDisturbance:
    pass


DisturbanceSpec = Union[Sinusoid, Step, Ramp, SampledNoise, NoDisturbance]


def noise_boundary_values(kind: NoiseKind, seed, count: int, hold: float) -> np.ndarray:
    """The first `count` hold-boundary values of a seeded noise stream.

    Same seed, same sequence.  Band-limited noise reads the outer hold to
    subsample its inner white sequence at the boundaries.
    """
    rng = np.random.default_rng(seed)
    if isinstance(kind, GaussianNoise):
        return rng.normal(0.0, kind.sigma, count)
    if isinstance(kind, UniformNoise):
        return rng.uniform(kind.low, kind.high, count)
    if isinstance(kind, BandLimitedNoise):
        inner_count = int(math.floor((count - 1) * hold / kind.inner_dt)) + 1 if count else 0
        white = rng.normal(0.0, math.sqrt(kind.power / kind.inner_dt), inner_count)
        idx = np.floor(np.arange(count) * hold / kind.inner_dt).astype(int)
        return white[idx]
    raise TypeError(f"unknown noise kind: {kind!r}")


class _AnalyticGenerator:
    __slots__ = ("_fn",)

    def __init__(self, fn):
        self._fn = fn

    def value(self, t: float) -> float:
        return self._fn(t)


class SampledNoiseGenerator:
    """Piecewise-constant noise, one draw per hold interval [k h, (k+1) h)."""

    __slots__ = ("hold", "_values", "_count")

    def __init__(self, spec: SampledNoise, seed, horizon: float):
        self.hold = spec.hold
        self._count = int(math.floor(horizon / spec.hold)) + 2
        try:
            values = noise_boundary_values(spec.kind, seed, self._count, spec.hold)
        except ValueError as exc:  # the spec is valid, so numpy refused the size
            raise MemoryError(str(exc)) from exc
        self._values = values.tolist()

    def value(self, t: float) -> float:
        idx = int(t / self.hold)
        if idx < 0:
            idx = 0
        elif idx >= self._count:
            idx = self._count - 1
        return self._values[idx]


def make_generator(spec: DisturbanceSpec, seed, horizon: float):
    """Build the evaluator for one channel; `seed` is only used for noise."""
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
    if isinstance(spec, SampledNoise):
        return SampledNoiseGenerator(spec, spec.seed if spec.seed is not None else seed, horizon)
    raise TypeError(f"unknown disturbance spec: {spec!r}")
