"""Every runtime finiteness check: a row of SITES per require_finite call in the package.

Each names its first non-finite entry in one NonFiniteError message format and passes finite
entries, even where their sum overflows.
"""

import ast
import math
from pathlib import Path

import pytest

import quadtrack
from quadtrack import (
    AngleGuardError,
    DenominatorTooSmallError,
    NonFiniteError,
    QuadrotorParams,
    Scenario,
)
from quadtrack.engine import ClosedLoop
from quadtrack.vehicle import (
    MIN_EXTRACTION_DENOMINATOR,
    extract_thrust_and_attitude,
    mix_inputs_to_rotor_speeds,
    state_derivative,
)

PARAMS = QuadrotorParams()
HOVER = (PARAMS.m * PARAMS.g, 0.0, 0.0, 0.0)


def replaced(values, entries, value):
    values = list(values)
    for i in entries:
        values[i] = value
    return values


def plant(state=(0.0,) * 12, inputs=HOVER, disturbance=(0.0,) * 6, omega_r=0.0):
    return state_derivative(PARAMS, state, inputs, omega_r, disturbance)


def augmented(entries, value):
    loop = ClosedLoop(Scenario())
    # Under estimated feedback only the plant rows read the true velocities, 7 and 9, so a
    # finite value there reaches no control leaf.
    return loop.derivative(0.0, replaced(loop.initial_state(), entries, value))


# (what the message names, the entries a test sets, call that sets them to a value v), by site.
# Where the checked vector has more than one entry, two are set: 1e308 in both overflows its sum.
SITES = [
    pytest.param("state", (7, 9), lambda e, v: plant(state=replaced([0.0] * 12, e, v)),
                 id="state"),
    pytest.param("inputs", (1, 2), lambda e, v: plant(inputs=replaced(HOVER, e, v)), id="inputs"),
    pytest.param("disturbance", (4, 5), lambda e, v: plant(disturbance=replaced([0.0] * 6, e, v)),
                 id="disturbance"),
    pytest.param("residual speed", (0,), lambda e, v: plant(omega_r=v), id="residual speed"),
    pytest.param("virtual control", (0, 1), lambda e, v: extract_thrust_and_attitude(
        PARAMS, *replaced([0.0] * 3, e, v), 0.0), id="virtual control"),
    pytest.param("yaw setpoint", (0,), lambda e, v: extract_thrust_and_attitude(
        PARAMS, 0.0, 0.0, 0.0, v), id="yaw setpoint"),
    pytest.param("inputs", (2, 3), lambda e, v: mix_inputs_to_rotor_speeds(
        PARAMS, replaced((1.0, 0.0, 0.0, 0.0), e, v)), id="mixer"),
    pytest.param("augmented state", (7, 9), augmented, id="augmented state"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("what, entries, call", SITES)
def test_every_runtime_site_names_the_entry(what, entries, call, bad):
    with pytest.raises(NonFiniteError) as exc:
        call(entries, bad)
    assert str(exc.value) == f"non-finite {what} entry {entries[0]}: {bad!r}"


@pytest.mark.parametrize("what, entries, call", SITES)
def test_finite_entries_whose_sum_overflows_pass(what, entries, call):
    call(entries, 1e308)


def test_every_runtime_check_has_a_site():
    # Each require_finite call in the package, by the name it gives its values, is a row above.
    whats = [node.args[1].value for module in Path(quadtrack.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(module.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require_finite"]
    assert sorted(whats) == sorted(site.values[0] for site in SITES)


def test_guard_errors_carry_their_fault_values():
    with pytest.raises(DenominatorTooSmallError) as exc:
        extract_thrust_and_attitude(PARAMS, 0.0, 0.0, -PARAMS.g + 0.05, 0.0)
    assert exc.value.value == pytest.approx(0.05)
    assert exc.value.limit == MIN_EXTRACTION_DENOMINATOR
    err = AngleGuardError(0.25, 1.6, -0.2)
    assert (err.t, err.roll, err.pitch) == (0.25, 1.6, -0.2)
