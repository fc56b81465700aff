import math

import numpy as np
import pytest

from quadtrack import (
    ControlInputs,
    NonFiniteError,
    QuadrotorParams,
    RotorSpeeds,
    mix_inputs_to_rotor_speeds,
    residual_speed,
    rotor_speeds_to_inputs,
    state_derivative,
    virtual_from_angles,
)

PARAMS = QuadrotorParams()


def level_state(**kw):
    s = [0.0] * 12
    for key, value in kw.items():
        s[int(key[1:]) - 1] = value
    return s


class TestStateDerivative:
    def test_hover_equilibrium(self):
        u = ControlInputs(PARAMS.m * PARAMS.g, 0.0, 0.0, 0.0)
        ds = state_derivative(PARAMS, level_state(), u, 0.0)
        assert np.array_equal(ds, np.zeros(12))

    def test_free_fall(self):
        u = ControlInputs(0.0, 0.0, 0.0, 0.0)
        ds = state_derivative(PARAMS, level_state(), u, 0.0)
        expected = np.zeros(12)
        expected[11] = -9.81
        assert np.allclose(ds, expected, atol=0.0)

    def test_pure_yaw_torque(self):
        # U_psi equal to Iz gives exactly 1 rad/s^2 of yaw acceleration.
        u = ControlInputs(0.0, 0.0, 0.0, 1.3e-3)
        ds = state_derivative(PARAMS, level_state(), u, 0.0)
        assert ds[5] == pytest.approx(1.0, rel=1e-12)
        assert ds[11] == pytest.approx(-PARAMS.g)
        others = [i for i in range(12) if i not in (5, 11)]
        assert np.all(ds[others] == 0.0)

    def test_disturbance_enters_acceleration_rows(self):
        d = (0.1, -0.2, 0.3, 0.4, -0.5, 0.6)
        u = ControlInputs(PARAMS.m * PARAMS.g, 0.0, 0.0, 0.0)
        ds = state_derivative(PARAMS, level_state(), u, 0.0, d)
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
            u0 = ControlInputs(up, 0.0, 0.0, 0.0)
            ua = ControlInputs(up, *t1)
            ub = ControlInputs(up, *t2)
            uab = ControlInputs(up, *(t1 + t2))
            dab = tuple(a + b for a, b in zip(d1, d2))
            lhs = state_derivative(PARAMS, s, uab, omega_r, dab) + state_derivative(
                PARAMS, s, u0, omega_r)
            rhs = state_derivative(PARAMS, s, ua, omega_r, d1) + state_derivative(
                PARAMS, s, ub, omega_r, d2)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_rejects_non_finite(self):
        u = ControlInputs(1.0, 0.0, 0.0, 0.0)
        bad = level_state()
        bad[3] = math.nan
        with pytest.raises(NonFiniteError):
            state_derivative(PARAMS, bad, u, 0.0)
        with pytest.raises(NonFiniteError):
            state_derivative(PARAMS, level_state(), ControlInputs(1.0, math.inf, 0.0, 0.0),
                             0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["state", "inputs", "disturbance"])
    def test_non_finite_message_names_the_value(self, where, bad):
        args = {"state": level_state(), "inputs": [PARAMS.m * PARAMS.g, 0.0, 0.0, 0.0],
                "disturbance": [0.0] * 6}
        args[where][1] = bad
        with pytest.raises(NonFiniteError) as exc:
            state_derivative(PARAMS, args["state"], ControlInputs(*args["inputs"]), 0.0,
                             args["disturbance"])
        assert str(exc.value) == f"non-finite value in {where}: {bad!r}"

    def test_finite_values_whose_sum_overflows_pass(self):
        # Two entries of 1e308 sum to inf; each is finite, so no check fires.
        state_derivative(PARAMS, level_state(x8=1e308, x10=1e308),
                         ControlInputs(1e308, 1e308, 0.0, 0.0), 0.0,
                         (1e308, 1e308, 0.0, 0.0, 0.0, 0.0))

    def test_rejects_negative_thrust(self):
        with pytest.raises(ValueError):
            state_derivative(PARAMS, level_state(), ControlInputs(-1.0, 0.0, 0.0, 0.0),
                             0.0)


class TestMixing:
    def test_equal_speeds_pure_thrust(self):
        u = rotor_speeds_to_inputs(PARAMS, RotorSpeeds(500.0, 500.0, 500.0, 500.0))
        assert u.uphi == 0.0 and u.utheta == 0.0 and u.upsi == 0.0
        assert u.up == pytest.approx(PARAMS.b * 4 * 500.0**2)

    def test_forward_values(self):
        u = rotor_speeds_to_inputs(PARAMS, RotorSpeeds(1000.0, 1000.0, 1000.0, 1000.0))
        assert u.up == pytest.approx(11.92, rel=1e-12)
        u = rotor_speeds_to_inputs(PARAMS, RotorSpeeds(0.0, 0.0, 1000.0, 0.0))
        assert u.up == pytest.approx(2.98, rel=1e-12)
        assert u.utheta == pytest.approx(2.98, rel=1e-12)
        assert u.uphi == 0.0
        assert u.upsi == pytest.approx(0.75, rel=1e-12)

    def test_uniform_thrust_split(self):
        res = mix_inputs_to_rotor_speeds(PARAMS, ControlInputs(4.0 * PARAMS.b, 0.0, 0.0, 0.0))
        assert not res.clamped
        assert np.allclose(res.speeds, [1.0] * 4, rtol=1e-12)

    def test_zero_inputs(self):
        res = mix_inputs_to_rotor_speeds(PARAMS, ControlInputs(0.0, 0.0, 0.0, 0.0))
        assert res.speeds == RotorSpeeds(0.0, 0.0, 0.0, 0.0)
        assert not res.clamped

    def test_round_trip_on_feasible_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            w = RotorSpeeds(*rng.uniform(100.0, 900.0, 4))
            u = rotor_speeds_to_inputs(PARAMS, w)
            res = mix_inputs_to_rotor_speeds(PARAMS, u)
            assert not res.clamped
            u2 = rotor_speeds_to_inputs(PARAMS, res.speeds)
            for a, b in zip(u, u2):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_clamping_flagged(self):
        # Torque demand far beyond the thrust budget forces negative squares.
        res = mix_inputs_to_rotor_speeds(PARAMS, ControlInputs(4.0 * PARAMS.b, 100.0, 0.0, 0.0))
        assert res.clamped

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            mix_inputs_to_rotor_speeds(PARAMS, ControlInputs(math.nan, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_message_names_the_value(self, bad):
        with pytest.raises(NonFiniteError) as exc:
            mix_inputs_to_rotor_speeds(PARAMS, ControlInputs(1.0, 0.0, bad, 0.0))
        assert str(exc.value) == f"non-finite value in inputs: {bad!r}"

    def test_finite_inputs_whose_sum_overflows_pass(self):
        mix_inputs_to_rotor_speeds(PARAMS, ControlInputs(1e308, 1e308, 0.0, 0.0))

    @pytest.mark.parametrize("uphi, utheta, speeds", [
        (2.0, 0.0, (0.0, 0.0, 0.0, 1.0)),   # rotor 2 wants a square of -1
        (-2.0, 0.0, (0.0, 1.0, 0.0, 0.0)),  # rotor 4
        (0.0, 2.0, (0.0, 0.0, 1.0, 0.0)),   # rotor 1
        (0.0, -2.0, (1.0, 0.0, 0.0, 0.0)),  # rotor 3
    ])
    def test_clamps_each_negative_square_alone(self, uphi, utheta, speeds):
        u = ControlInputs(0.0, uphi * PARAMS.b, utheta * PARAMS.b, 0.0)
        res = mix_inputs_to_rotor_speeds(PARAMS, u)
        assert res.clamped
        assert res.speeds == RotorSpeeds(*speeds)


class TestResidualSpeed:
    def test_equal_speeds_cancel(self):
        assert residual_speed(PARAMS, RotorSpeeds(400.0, 400.0, 400.0, 400.0)) == 0.0

    def test_alternating_sign_convention(self):
        assert residual_speed(PARAMS, RotorSpeeds(100.0, 110.0, 100.0, 110.0)) == pytest.approx(20.0)

    def test_fixed_mode(self):
        p = QuadrotorParams(fixed_residual_speed=0.0)
        assert residual_speed(p, RotorSpeeds(1.0, 2.0, 3.0, 4.0)) == 0.0
        p = QuadrotorParams(fixed_residual_speed=12.5)
        assert residual_speed(p, RotorSpeeds(9.0, 9.0, 9.0, 9.0)) == 12.5


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


class TestParamsValidation:
    def test_defaults_valid(self):
        QuadrotorParams()

    @pytest.mark.parametrize("field", ["m", "l", "b", "d", "Ix", "Iy", "Iz", "Ir", "g"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            QuadrotorParams(**{field: 0.0})
        with pytest.raises(ValueError):
            QuadrotorParams(**{field: -1.0})
