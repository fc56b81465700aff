"""Exception types, the one range rule for configuration numbers and the one runtime NaN check."""

import math


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ScenarioError(SimulationError, ValueError):
    """Scenario file or configuration is invalid."""


def require_fields(obj, **in_range):
    """ScenarioError("Class.field out of range: value") for the first field not ok or not finite."""
    for name, ok in in_range.items():
        value = getattr(obj, name)
        # A bool is no number; an int is finite at any size, where math.isfinite would overflow.
        if type(value) is bool or not (ok and (isinstance(value, int) or math.isfinite(value))):
            raise ScenarioError(f"{type(obj).__name__}.{name} out of range: {value!r}")


class NonFiniteError(SimulationError):
    """A state, input, or derived quantity became NaN or infinite."""


def require_finite(values, what: str):
    # A non-finite term makes the sum non-finite, so a finite sum clears
    # every term at once; only a non-finite sum (which finite terms reach by
    # overflowing it) needs the walk that names the culprit.
    if math.isfinite(sum(values)):
        return
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite {what} entry {i}: {v!r}")


class AngleGuardError(SimulationError):
    """Roll or pitch left the model's validity range."""

    def __init__(self, t: float, roll: float, pitch: float):
        self.t = t
        self.roll = roll
        self.pitch = pitch
        super().__init__(
            f"attitude left validity range at t={t:.6f} s "
            f"(roll={roll:.4f} rad, pitch={pitch:.4f} rad)"
        )


class DenominatorTooSmallError(SimulationError):
    """Vertical virtual control too close to free fall for thrust extraction."""

    def __init__(self, value: float, limit: float):
        self.value = value
        self.limit = limit
        super().__init__(
            f"thrust extraction denominator U_z + g = {value:.6f} m/s^2 "
            f"is below the {limit} m/s^2 guard"
        )
