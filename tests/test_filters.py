import math

import numpy as np
import pytest

from quadtrack import command_filter_derivative, first_order_filter_derivative, rk4_step

DT = 1e-3


def integrate_command_filter(ref_fn, m1, m2, z0=(0.0, 0.0), t_end=20.0, dt=DT):
    z = np.array(z0, dtype=float)
    f = lambda t, s: np.array(command_filter_derivative(s[0], s[1], m1, m2, ref_fn(t)))
    n = int(round(t_end / dt))
    out = np.empty((n + 1, 3))
    out[0] = (0.0, *z)
    for i in range(n):
        z = rk4_step(f, z, i * dt, dt)
        out[i + 1] = ((i + 1) * dt, *z)
    return out


class TestCommandFilter:
    def test_zero_error_is_equilibrium(self):
        dz1, dz2 = command_filter_derivative(0.3, 0.0, 1.0, 1.0, 0.3)
        assert dz1 == 0.0 and dz2 == 0.0

    def test_zero_error_passes_rate(self):
        dz1, dz2 = command_filter_derivative(0.3, 0.7, 1.0, 1.0, 0.3)
        assert dz1 == 0.7 and dz2 == 0.0

    def test_square_root_correction(self):
        # error of 4 gives a sqrt correction of 2 against the error sign
        dz1, dz2 = command_filter_derivative(4.0, 0.0, 1.0, 2.5, 0.0)
        assert dz1 == -2.0
        assert dz2 == -2.5

    def test_converges_to_constant_reference(self):
        out = integrate_command_filter(lambda t: 1.0, 1.0, 1.0)
        err = np.abs(out[:, 1] - 1.0)
        above = np.nonzero(err > 1e-3)[0]
        settle = out[above[-1] + 1, 0]
        # locked from the first validated run: 2.495 s
        assert settle <= 3.0
        assert err[-1] < 1e-3
        assert abs(out[-1, 2]) < 1e-3  # z2 approximates the zero reference rate

    def test_translation_equivariance(self):
        # Shifting the reference and the initial state by a constant shifts
        # the whole z1 trajectory by that constant and leaves z2 unchanged.
        shift = 2.75
        base = integrate_command_filter(lambda t: math.sin(0.5 * t), 1.0, 1.0,
                                        z0=(0.4, 0.0), t_end=5.0)
        moved = integrate_command_filter(lambda t: math.sin(0.5 * t) + shift, 1.0, 1.0,
                                         z0=(0.4 + shift, 0.0), t_end=5.0)
        assert np.allclose(moved[:, 1], base[:, 1] + shift, atol=1e-12)
        assert np.allclose(moved[:, 2], base[:, 2], atol=1e-12)

    def test_ramp_rate_recovery(self):
        slope = 0.3
        out = integrate_command_filter(lambda t: slope * t, 1.0, 1.0)
        err = np.abs(out[:, 2] - slope)
        above = np.nonzero(err > 1e-2)[0]
        settle = out[above[-1] + 1, 0]
        # locked from the first validated run: 0.53 s
        assert settle <= 1.0
        assert err[-1] < 1e-2

    @pytest.mark.parametrize("m1, m2, dt", [(1.0, 1.0, 1e-3), (1.0, 0.1, 1e-3), (1.0, 1.0, 5e-4)])
    def test_chatter_bounded_by_m2_dt(self, m1, m2, dt):
        # The docstring's bound (Levant, Automatica 1998).  Each RK4 stage
        # rate |dz2| is at most m2, so one step moves z2 by at most m2*dt, up
        # to the rounding of z2 itself.  The filter settles on the constant
        # reference within 3 s and then chatters: measured tail peaks of
        # 0.67, 1.0 (0.99999999999994) and 0.33 of m2*dt for these cases.
        out = integrate_command_filter(lambda t: 1.0, m1, m2, t_end=10.0, dt=dt)
        z2 = out[:, 2]
        assert np.abs(z2[out[:, 0] >= 5.0]).max() <= m2 * dt
        ulps = np.spacing(np.maximum(np.abs(z2[1:]), np.abs(z2[:-1])))
        assert np.all(np.abs(np.diff(z2)) <= m2 * dt + 4.0 * ulps)


class TestFirstOrderFilter:
    def test_fixed_point(self):
        assert first_order_filter_derivative(0.8, 0.8, 0.05) == 0.0

    def test_unit_step_slope(self):
        assert first_order_filter_derivative(0.0, 1.0, 1.0) == 1.0

    def test_matches_exponential_step_response(self):
        tau = 0.5
        sigma = 0.0
        f = lambda t, s: first_order_filter_derivative(s, 1.0, tau)
        for i in range(500):
            sigma = rk4_step(f, sigma, i * DT, DT)
        exact = 1.0 - math.exp(-0.5 / tau)
        assert sigma == pytest.approx(exact, abs=1e-4)

    def test_monotone_exponential_approach(self):
        tau = 0.2
        sigma = 0.0
        f = lambda t, s: first_order_filter_derivative(s, 1.0, tau)
        prev = sigma
        for i in range(2000):
            sigma = rk4_step(f, sigma, i * DT, DT)
            exact = 1.0 - math.exp(-(i + 1) * DT / tau)
            assert sigma > prev
            assert sigma == pytest.approx(exact, abs=1e-9)  # O(dt^4) accuracy
            prev = sigma
