"""Every runtime finiteness check raises one NonFiniteError message format."""

import math

import pytest

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


def replaced(values, i, bad):
    values = list(values)
    values[i] = bad
    return values


def plant(state=(0.0,) * 12, inputs=HOVER, disturbance=(0.0,) * 6, omega_r=0.0):
    return state_derivative(PARAMS, state, inputs, omega_r, disturbance)


def augmented(bad):
    loop = ClosedLoop(Scenario())
    a = loop.initial_state()
    a[16] = bad  # the roll rig's xhat2
    return loop.derivative(0.0, a)


# (what the message names, entry index, call that puts the bad value there), by site
SITES = [
    pytest.param("state", 3, lambda bad: plant(state=replaced([0.0] * 12, 3, bad)), id="state"),
    pytest.param("inputs", 1, lambda bad: plant(inputs=replaced(HOVER, 1, bad)), id="inputs"),
    pytest.param("disturbance", 4, lambda bad: plant(disturbance=replaced([0.0] * 6, 4, bad)),
                 id="disturbance"),
    pytest.param("residual speed", 0, lambda bad: plant(omega_r=bad), id="residual speed"),
    pytest.param("virtual control", 2,
                 lambda bad: extract_thrust_and_attitude(PARAMS, 0.0, 0.0, bad, 0.0),
                 id="virtual control"),
    pytest.param("yaw setpoint", 0,
                 lambda bad: extract_thrust_and_attitude(PARAMS, 0.0, 0.0, 0.0, bad),
                 id="yaw setpoint"),
    pytest.param("inputs", 2,
                 lambda bad: mix_inputs_to_rotor_speeds(PARAMS, (1.0, 0.0, bad, 0.0)),
                 id="mixer"),
    pytest.param("augmented state", 16, augmented, id="augmented state"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("what, entry, call", SITES)
def test_every_runtime_site_names_the_entry(what, entry, call, bad):
    with pytest.raises(NonFiniteError) as exc:
        call(bad)
    assert str(exc.value) == f"non-finite {what} entry {entry}: {bad!r}"


def test_guard_errors_carry_their_fault_values():
    with pytest.raises(DenominatorTooSmallError) as exc:
        extract_thrust_and_attitude(PARAMS, 0.0, 0.0, -PARAMS.g + 0.05, 0.0)
    assert exc.value.value == pytest.approx(0.05)
    assert exc.value.limit == MIN_EXTRACTION_DENOMINATOR
    err = AngleGuardError(0.25, 1.6, -0.2)
    assert (err.t, err.roll, err.pitch) == (0.25, 1.6, -0.2)
