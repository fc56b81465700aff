"""Exception types, the construction rule for configuration fields, and the runtime NaN check."""

import functools
import math
import sys
import typing


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ScenarioError(SimulationError, ValueError):
    """Scenario file or configuration is invalid."""


def quoted(value) -> str:
    """repr(value) for an error message, cut after its first 500 characters with "..."."""
    text = repr(value)
    return text if len(text) <= 500 else text[:500] + "..."


def require_fields(obj, **in_range):
    """ScenarioError("Class.field out of range: value") for the first field of obj that fails.

    Each field of the dataclass meets three tests in this order, so a test sees only what
    the one before it passed: its type, against the field's annotation (exactly, so a bool
    is no number and a float no int, but a float field admits an int that fits a float, a
    Tuple field a list, and a Dict or Tuple field has each entry checked); that a float is
    finite, entries included; and the range predicate passed for the field by name, if
    there is one.  A bad entry is named by its key or index ("Class.field[1][2]").
    """
    for name, (exact, admits, entries) in _schema(type(obj)).items():
        value = getattr(obj, name)
        ok = in_range.get(name)
        if not ((type(value) in exact or admits(value))
                and (type(value) is not float or math.isfinite(value))
                and (ok is None or ok(value))):
            where = f"{type(obj).__name__}.{name}"
            while entries and (refused := _refused(entries, value)):
                key, value, entries = refused  # name the entry, not the whole list or table
                where += f"[{quoted(key)}]"
            raise ScenarioError(f"{where} out of range: {quoted(value)}")


@functools.cache
def _schema(cls) -> dict:
    """Field name -> _admitted(its annotation)."""
    return {name: _admitted(hint) for name, hint in typing.get_type_hints(cls).items()}


def _admitted(hint):
    """(The types hint admits, a test for the other values it admits, and for a Dict or
    Tuple hint the container types it admits with _admitted(the entries), else None)."""
    members = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
    exact = frozenset(m for m in members if typing.get_origin(m) is None)
    if float in exact:  # an int is finite at any size, but must fit a float
        return exact, lambda v: type(v) is int and abs(v) <= sys.float_info.max, None
    for m in members:  # Dict[str, X] (Scenario checks the keys) or Tuple[X, ...], also a list
        origin = typing.get_origin(m)
        if origin in (dict, tuple):
            entries = ((dict,) if origin is dict else (tuple, list),
                       _admitted(typing.get_args(m)[1 if origin is dict else 0]))
            return exact, lambda v: type(v) in entries[0] and not _refused(entries, v), entries
    return exact, lambda v: False, None


def _refused(entries, values):
    """(key, value, its entries) for the first of values that entries refuses, or None."""
    kinds, (exact, admits, inner) = entries
    if type(values) in kinds:
        pairs = values.items() if type(values) is dict else enumerate(values)
        return next(((k, v, inner) for k, v in pairs if not (type(v) in exact or admits(v))
                     or type(v) is float and not math.isfinite(v)), None)


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
