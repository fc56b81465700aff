import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtrack import DenominatorTooSmallError, NonFiniteError, QuadrotorParams
from quadtrack import vehicle
from quadtrack.vehicle import (
    acceleration_from_attitude,
    attitude_coupling,
    attitude_input_gain,
    extract_thrust_and_attitude,
    mix_inputs_to_rotor_speeds,
    residual_speed,
    state_derivative,
)
from support import rotor_speeds_to_inputs

PARAMS = QuadrotorParams()
EPS = np.finfo(float).eps


def level_state():
    return [0.0] * 12


class TestStateDerivative:
    def test_hover_equilibrium(self):
        u = (PARAMS.m * PARAMS.g, 0.0, 0.0, 0.0)
        ds = state_derivative(PARAMS, level_state(), u, 0.0)
        assert np.array_equal(ds, np.zeros(12))

    def test_free_fall(self):
        u = (0.0, 0.0, 0.0, 0.0)
        ds = state_derivative(PARAMS, level_state(), u, 0.0)
        expected = np.zeros(12)
        expected[11] = -9.81
        assert np.allclose(ds, expected, atol=0.0)

    def test_pure_yaw_torque(self):
        # U_psi equal to Iz gives exactly 1 rad/s^2 of yaw acceleration.
        u = (0.0, 0.0, 0.0, 1.3e-3)
        ds = np.asarray(state_derivative(PARAMS, level_state(), u, 0.0))
        assert ds[5] == pytest.approx(1.0, rel=1e-12)
        assert ds[11] == pytest.approx(-PARAMS.g)
        others = [i for i in range(12) if i not in (5, 11)]
        assert np.all(ds[others] == 0.0)

    def test_disturbance_enters_acceleration_rows(self):
        d = (0.1, -0.2, 0.3, 0.4, -0.5, 0.6)
        u = (PARAMS.m * PARAMS.g, 0.0, 0.0, 0.0)
        ds = np.asarray(state_derivative(PARAMS, level_state(), u, 0.0, d))
        assert np.allclose(ds[[1, 3, 5, 7, 9, 11]], d)
        assert np.all(ds[[0, 2, 4, 6, 8, 10]] == 0.0)

    def test_superposition_in_torques_and_disturbance(self):
        # The derivative is affine in (U_phi, U_theta, U_psi, d) at fixed
        # state and thrust: f(u1 + u2) + f(0) = f(u1) + f(u2).
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.normal(0.0, 0.5, 12)
            s[0], s[2] = rng.uniform(-1.0, 1.0, 2)
            up = rng.uniform(0.0, 10.0)
            omega_r = rng.normal(0.0, 20.0)
            t1 = rng.normal(0.0, 1.0, 3)
            t2 = rng.normal(0.0, 1.0, 3)
            d1 = tuple(rng.normal(0.0, 1.0, 6))
            d2 = tuple(rng.normal(0.0, 1.0, 6))
            u0 = (up, 0.0, 0.0, 0.0)
            ua = (up, *t1)
            ub = (up, *t2)
            uab = (up, *(t1 + t2))
            dab = tuple(a + b for a, b in zip(d1, d2))
            lhs = np.asarray(state_derivative(PARAMS, s, uab, omega_r, dab)) + np.asarray(
                state_derivative(PARAMS, s, u0, omega_r))
            rhs = np.asarray(state_derivative(PARAMS, s, ua, omega_r, d1)) + np.asarray(
                state_derivative(PARAMS, s, ub, omega_r, d2))
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_returns_a_tuple_of_twelve_floats(self):
        # The rows the array form of the plant held, same bits, as plain floats.
        rng = np.random.default_rng(11)
        for _ in range(20):
            state, torques, d = (rng.normal(0.0, 0.5, n).tolist() for n in (12, 3, 6))
            up, omega_r = rng.uniform(0.0, 10.0), rng.normal(0.0, 20.0)
            ds = state_derivative(PARAMS, state, (up, *torques), omega_r, d)
            assert type(ds) is tuple and len(ds) == 12
            assert all(type(v) is float for v in ds)
            accel = [attitude_coupling(axis, PARAMS, state[1:6:2], omega_r)
                     + attitude_input_gain(axis, PARAMS) * u + d_axis
                     for axis, u, d_axis in zip(("roll", "pitch", "yaw"), torques, d)]
            accel += [a + d_axis for a, d_axis in zip(
                acceleration_from_attitude(PARAMS, *state[0:6:2], up), d[3:])]
            want = np.array([row for pair in zip(state[1::2], accel) for row in pair])
            assert np.asarray(ds).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["state", "inputs", "disturbance"])
    def test_non_finite_message_names_the_value(self, where, bad):
        args = {"state": level_state(), "inputs": [PARAMS.m * PARAMS.g, 0.0, 0.0, 0.0],
                "disturbance": [0.0] * 6}
        args[where][1] = bad
        with pytest.raises(NonFiniteError) as exc:
            state_derivative(PARAMS, args["state"], args["inputs"], 0.0, args["disturbance"])
        assert str(exc.value) == f"non-finite {where} entry 1: {bad!r}"

    def test_rejects_negative_thrust(self):
        with pytest.raises(ValueError):
            state_derivative(PARAMS, level_state(), (-1.0, 0.0, 0.0, 0.0), 0.0)


_REAL = st.floats(-50.0, 50.0)


class TestPlantIsTheModel:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(state=st.lists(_REAL, min_size=12, max_size=12), up=st.floats(0.0, 50.0),
           torques=st.lists(_REAL, min_size=3, max_size=3), omega_r=st.floats(-2000.0, 2000.0),
           d=st.lists(_REAL, min_size=6, max_size=6))
    def test_acceleration_rows_are_model_terms_plus_disturbance(self, state, up, torques,
                                                                omega_r, d):
        # The plant, the torque law and the observers share one model: every
        # acceleration row equals its model function plus the disturbance, exactly.
        phi, theta, psi = state[0:6:2]
        rates = state[1:6:2]
        expected = [attitude_coupling(axis, PARAMS, rates, omega_r)
                    + attitude_input_gain(axis, PARAMS) * u + d_axis
                    for axis, u, d_axis in zip(("roll", "pitch", "yaw"), torques, d)]
        accel = acceleration_from_attitude(PARAMS, phi, theta, psi, up)
        expected += [a + d_axis for a, d_axis in zip(accel, d[3:])]
        ds = np.asarray(state_derivative(PARAMS, state, (up, *torques), omega_r, d))
        assert ds[1::2].tolist() == expected


class TestAxisRows:
    def test_table_is_not_a_field(self):
        # Reading the table leaves asdict and equality alone; replace builds a new one.
        prm = QuadrotorParams()
        before = dataclasses.asdict(prm)
        assert attitude_input_gain("roll", prm) == prm.l / prm.Ix
        assert dataclasses.asdict(prm) == before
        assert prm == QuadrotorParams()
        wider = dataclasses.replace(prm, Ix=2 * prm.Ix)
        assert attitude_input_gain("roll", wider) == wider.l / wider.Ix


class TestMixing:
    def test_equal_speeds_pure_thrust(self):
        up, uphi, utheta, upsi = rotor_speeds_to_inputs(PARAMS, (500.0, 500.0, 500.0, 500.0))
        assert uphi == 0.0 and utheta == 0.0 and upsi == 0.0
        assert up == pytest.approx(PARAMS.b * 4 * 500.0**2)

    def test_forward_values(self):
        up, _, _, _ = rotor_speeds_to_inputs(PARAMS, (1000.0, 1000.0, 1000.0, 1000.0))
        assert up == pytest.approx(11.92, rel=1e-12)
        up, uphi, utheta, upsi = rotor_speeds_to_inputs(PARAMS, (0.0, 0.0, 1000.0, 0.0))
        assert up == pytest.approx(2.98, rel=1e-12)
        assert utheta == pytest.approx(2.98, rel=1e-12)
        assert uphi == 0.0
        assert upsi == pytest.approx(0.75, rel=1e-12)

    def test_uniform_thrust_split(self):
        res = mix_inputs_to_rotor_speeds(PARAMS, (4.0 * PARAMS.b, 0.0, 0.0, 0.0))
        assert not res.clamped
        assert np.allclose(res.speeds, [1.0] * 4, rtol=1e-12)

    def test_zero_inputs(self):
        res = mix_inputs_to_rotor_speeds(PARAMS, (0.0, 0.0, 0.0, 0.0))
        assert res.speeds == (0.0, 0.0, 0.0, 0.0)
        assert not res.clamped

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.tuples(*[st.floats(1.0, 2000.0)] * 4))
    def test_round_trip_on_feasible_inputs(self, w):
        # The bound the mix_inputs_to_rotor_speeds docstring states.
        u = rotor_speeds_to_inputs(PARAMS, w)
        res = mix_inputs_to_rotor_speeds(PARAMS, u)
        assert not res.clamped
        back = rotor_speeds_to_inputs(PARAMS, res.speeds)
        up = u[0]
        scale = (up, up, up, up * PARAMS.d / PARAMS.b)
        for want, got, s in zip(u, back, scale):
            assert abs(got - want) <= 8.0 * EPS * s

    def test_clamping_flagged(self):
        # Torque demand far beyond the thrust budget forces negative squares.
        res = mix_inputs_to_rotor_speeds(PARAMS, (4.0 * PARAMS.b, 100.0, 0.0, 0.0))
        assert res.clamped

    @pytest.mark.parametrize("uphi, utheta, speeds", [
        (2.0, 0.0, (0.0, 0.0, 0.0, 1.0)),   # rotor 2 wants a square of -1
        (-2.0, 0.0, (0.0, 1.0, 0.0, 0.0)),  # rotor 4
        (0.0, 2.0, (0.0, 0.0, 1.0, 0.0)),   # rotor 1
        (0.0, -2.0, (1.0, 0.0, 0.0, 0.0)),  # rotor 3
    ])
    def test_clamps_each_negative_square_alone(self, uphi, utheta, speeds):
        u = (0.0, uphi * PARAMS.b, utheta * PARAMS.b, 0.0)
        res = mix_inputs_to_rotor_speeds(PARAMS, u)
        assert res.clamped
        assert res.speeds == speeds


class TestResidualSpeed:
    def test_equal_speeds_cancel(self):
        assert residual_speed((400.0, 400.0, 400.0, 400.0)) == 0.0

    def test_alternating_sign_convention(self):
        assert residual_speed((100.0, 110.0, 100.0, 110.0)) == pytest.approx(20.0)


def virtual_from_angles(phi, theta, psi):
    """Horizontal thrust direction cosines: the x/y acceleration per unit thrust acceleration."""
    return acceleration_from_attitude(PARAMS, phi, theta, psi, PARAMS.m)[:2]


class TestVirtualFromAngles:
    def test_level(self):
        assert virtual_from_angles(0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_pitch_only(self):
        ux, uy = virtual_from_angles(0.0, math.pi / 4, 0.0)
        assert ux == pytest.approx(math.sqrt(2) / 2)
        assert uy == pytest.approx(0.0, abs=1e-15)

    def test_roll_with_quarter_yaw(self):
        ux, uy = virtual_from_angles(math.pi / 4, 0.0, math.pi / 2)
        assert ux == pytest.approx(math.sqrt(2) / 2)
        assert uy == pytest.approx(0.0, abs=1e-15)

    def test_always_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            ux, uy = virtual_from_angles(*rng.uniform(-math.pi, math.pi, 3))
            assert -1.0 <= ux <= 1.0 and -1.0 <= uy <= 1.0


class TestThrustAttitudeExtraction:
    def test_level_hover(self):
        phi, theta, _, up = extract_thrust_and_attitude(PARAMS, 0.0, 0.0, 0.0, 0.0)
        assert phi == 0.0 and theta == 0.0
        assert up == pytest.approx(6.3765, abs=1e-8)

    def test_forward_acceleration(self):
        phi, theta, _, up = extract_thrust_and_attitude(PARAMS, PARAMS.g, 0.0, 0.0, 0.0)
        assert theta == pytest.approx(math.pi / 4)
        assert phi == pytest.approx(0.0, abs=1e-15)
        assert up == pytest.approx(PARAMS.m * PARAMS.g * math.sqrt(2), rel=1e-9)
        assert up == pytest.approx(9.0177, abs=2e-4)

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-PARAMS.g + 0.2, 1e3),
           st.floats(-math.pi, math.pi))
    def test_round_trip_against_forward_model(self, ux, uy, uz, psi):
        # The bound the acceleration_from_attitude docstring states.
        phi, theta, psi_des, up = extract_thrust_and_attitude(PARAMS, ux, uy, uz, psi)
        assert psi_des == psi
        acc = up / PARAMS.m
        bound = 4.0 * EPS * acc * acc / (uz + PARAMS.g)
        back = acceleration_from_attitude(PARAMS, phi, theta, psi, up)
        for got, want in zip(back, (ux, uy, uz)):
            assert abs(got - want) <= bound

    def test_angles_always_inside_validity_range(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            phi, theta, _, up = extract_thrust_and_attitude(
                PARAMS, rng.uniform(-50, 50), rng.uniform(-50, 50),
                rng.uniform(-PARAMS.g + 0.2, 50), rng.uniform(-math.pi, math.pi))
            assert abs(phi) < math.pi / 2
            assert abs(theta) < math.pi / 2
            assert up >= 0.0

    def test_thrust_increases_with_vertical_demand(self):
        ups = [extract_thrust_and_attitude(PARAMS, 1.0, -2.0, uz, 0.3)[3]
               for uz in np.linspace(-5.0, 10.0, 40)]
        assert all(a < b for a, b in zip(ups, ups[1:]))

    def test_free_fall_guard(self):
        with pytest.raises(DenominatorTooSmallError):
            extract_thrust_and_attitude(PARAMS, 0.0, 0.0, -PARAMS.g, 0.0)
        with pytest.raises(DenominatorTooSmallError):
            extract_thrust_and_attitude(PARAMS, 1.0, 1.0, -PARAMS.g + 0.05, 0.0)
        # Uz + g == 0.1, the threshold, passes; the next float down does not.
        params = QuadrotorParams(g=0.2)
        assert extract_thrust_and_attitude(params, 0.0, 0.0, -0.1, 0.0)[3] > 0.0
        with pytest.raises(DenominatorTooSmallError):
            extract_thrust_and_attitude(params, 0.0, 0.0, math.nextafter(-0.1, -1.0), 0.0)


class TestParamsValidation:
    @pytest.mark.parametrize("field", ["m", "l", "b", "d", "Ix", "Iy", "Iz", "Ir", "g"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            QuadrotorParams(**{field: 0.0})
        with pytest.raises(ValueError):
            QuadrotorParams(**{field: -1.0})

    def test_holds_only_airframe_constants(self):
        # Every field is a constant with the range "> 0"; a run setting belongs on Scenario.
        assert {f.name for f in dataclasses.fields(QuadrotorParams)} == set(vehicle._RANGES)
