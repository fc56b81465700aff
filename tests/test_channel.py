import math

import numpy as np
import pytest

from quadtrack.channel import (
    command_filter_derivative,
    do_derivative,
    do_estimate,
    first_order_filter_derivative,
    hgo_derivative,
)
from support import rk4_trajectory

DT = 1e-3


def integrate_command_filter(ref_fn, m1, m2, z0=(0.0, 0.0), t_end=20.0, dt=DT):
    f = lambda t, s: command_filter_derivative(s[0], s[1], m1, m2, ref_fn(t))
    n = int(round(t_end / dt))
    return np.column_stack([np.arange(n + 1) * dt, rk4_trajectory(f, z0, n, dt)])


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

    def test_m2_bounds_the_reference_acceleration_not_its_slope(self):
        # The docstring's claim at m1 = m2 = 1: a ramp of slope 5 is followed (measured: z2
        # within 1e-2 of 5 from 9.37 s on); a sine with |ref''| up to 0.25 is tracked (z1 error
        # 3.2e-7 over t > 20 s) and one with |ref''| up to 4 is lost (z1 error 1.1).
        ramp = integrate_command_filter(lambda t: 5.0 * t, 1.0, 1.0, t_end=12.0)
        assert np.abs(ramp[ramp[:, 0] >= 10.0, 2] - 5.0).max() < 1e-2
        for omega, tracked in ((0.5, True), (2.0, False)):
            out = integrate_command_filter(lambda t: math.sin(omega * t), 1.0, 1.0, t_end=30.0)
            late = out[out[:, 0] > 20.0]
            err = np.abs(late[:, 1] - np.sin(omega * late[:, 0])).max()
            assert err < 1e-6 if tracked else err > 0.5

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
        f = lambda t, s: [first_order_filter_derivative(s[0], 1.0, tau)]
        sigma = rk4_trajectory(f, [0.0], 500, DT)[-1, 0]
        exact = 1.0 - math.exp(-0.5 / tau)
        assert sigma == pytest.approx(exact, abs=1e-4)

    def test_monotone_exponential_approach(self):
        tau = 0.2
        f = lambda t, s: [first_order_filter_derivative(s[0], 1.0, tau)]
        sigma = rk4_trajectory(f, [0.0], 2000, DT)[:, 0]
        exact = [1.0 - math.exp(-(i + 1) * DT / tau) for i in range(2000)]
        assert np.all(np.diff(sigma) > 0.0)
        assert sigma[1:] == pytest.approx(exact, abs=1e-9)  # O(dt^4) accuracy


class TestDisturbanceObserver:
    def test_rest_point(self):
        assert do_derivative(0.0, 2.0, 0.0, 0.0, 0.0) == 0.0

    def test_internal_state_decay(self):
        assert do_derivative(1.0, 2.0, 0.0, 0.0, 0.0) == -2.0

    def test_estimate_composition(self):
        assert do_estimate(0.0, 2.0, 0.0) == 0.0
        assert do_estimate(-2.0, 2.0, 1.0) == 0.0

    def test_exponential_error_decay_closed_form(self):
        # constant disturbance, exact rate feedback, no model terms:
        # dtilde(t) = dtilde(0) exp(-lam t); from dtilde(0) = -1, lam = 2 the
        # magnitude at t = 1 s is exp(-2).
        lam, d = 2.0, 1.0

        def f(t, s):
            x2, gamma = s
            return np.array([d, do_derivative(gamma, lam, x2, 0.0, 0.0)])

        x2, gamma = rk4_trajectory(f, [0.0, 0.0], 1000, DT)[-1]
        dtilde = do_estimate(gamma, lam, x2) - d
        assert abs(dtilde) == pytest.approx(math.exp(-2.0), abs=1e-4)

    @pytest.mark.parametrize("lam", [2.0, 5.0, 10.0])
    def test_log_error_slope_matches_bandwidth(self, lam):
        d = 0.7

        def f(t, s):
            x2, gamma = s
            return np.array([d, do_derivative(gamma, lam, x2, 0.0, 0.0)])

        n = int(round((4.0 / lam) / DT))
        logs = [math.log(abs(do_estimate(gamma, lam, x2) - d))
                for x2, gamma in rk4_trajectory(f, [0.0, 0.0], n, DT)]
        t = np.arange(n + 1) * DT
        slope = np.polyfit(t, logs, 1)[0]
        assert slope == pytest.approx(-lam, rel=0.02)

    def test_ramp_disturbance_constant_lag(self):
        # d(t) = c t: the error settles at -c/lam (solve dtilde' = -lam dtilde - c).
        lam, c = 5.0, 0.4

        def f(t, s):
            x2, gamma = s
            return np.array([c * t, do_derivative(gamma, lam, x2, 0.0, 0.0)])

        n = int(round(6.0 / DT))
        x2, gamma = rk4_trajectory(f, [0.0, 0.0], n, DT)[-1]
        dtilde = do_estimate(gamma, lam, x2) - c * (n * DT)
        assert abs(dtilde) == pytest.approx(c / lam, rel=0.05)


class TestHighGainObserver:
    def test_error_equilibrium(self):
        dxh1, dxh2 = hgo_derivative(0.2, 0.5, 1.0, 2.0, 0.1, 0.2, 0.0, 0.0)
        assert dxh1 == 0.5 and dxh2 == 0.0

    def test_injection_scaling(self):
        dxh1, dxh2 = hgo_derivative(0.0, 0.0, 1.0, 2.0, 0.1, 0.1, 0.0, 0.0)
        assert dxh1 == pytest.approx(1.0)
        assert dxh2 == pytest.approx(20.0)

    def test_eps_sweep_sup_error_decreases(self):
        # Double integrator driven by an acceleration the observer does not
        # model; the steady sup-norm estimation error shrinks with eps.
        def sup_error(eps, t_end=20.0):
            def f(t, s):
                x1, x2, xh1, xh2 = s
                dxh1, dxh2 = hgo_derivative(xh1, xh2, 1.0, 2.0, eps, x1, 0.0, 0.0)
                return np.array([x2, math.sin(t), dxh1, dxh2])

            n = int(round(t_end / DT))
            after = rk4_trajectory(f, [0.0] * 4, n, DT)[1:]
            late = after[np.arange(1, n + 1) * DT > t_end / 2]
            return np.abs(late[:, :2] - late[:, 2:]).max()

        sups = [sup_error(eps) for eps in (0.1, 0.05, 0.01)]
        assert sups[0] > sups[1] > sups[2]

    def test_peaking_grows_as_eps_shrinks(self):
        # The docstring's claim in closed form: peaking is the initial output
        # mismatch delta0 over eps, times a constant of (b1, b2).  Against a
        # plant at rest at delta0 the rate estimate is, in fast time s = t/eps,
        # xhat2 = (delta0/eps) (b2/w) exp(-b1 s/2) sin(w s) with
        # w = sqrt(b2 - b1^2/4), whose peak is at s* = atan(2w/b1)/w.
        b1, b2, dt = 1.0, 2.0, 1e-4
        w = math.sqrt(b2 - b1 * b1 / 4.0)
        s_peak = math.atan(2.0 * w / b1) / w
        shape = (b2 / w) * math.exp(-b1 * s_peak / 2.0) * math.sin(w * s_peak)
        assert shape == pytest.approx(0.8953436, abs=1e-7)

        def peak(eps, delta0):
            def f(t, s):
                x1, x2, xh1, xh2 = s
                dxh1, dxh2 = hgo_derivative(xh1, xh2, b1, b2, eps, x1, 0.0, 0.0)
                return np.array([x2, 0.0, dxh1, dxh2])

            n = int(round(3.0 * eps / dt))  # past the peak at s* = 0.91
            return np.abs(rk4_trajectory(f, [delta0, 0.0, 0.0, 0.0], n, dt)[1:, 3]).max()

        for eps, delta0 in ((0.2, 1.0), (0.1, 1.0), (0.05, 1.0), (0.02, 1.0), (0.05, 3.0)):
            assert peak(eps, delta0) * eps / delta0 == pytest.approx(shape, rel=1e-6), (eps, delta0)

    def test_random_positive_gains_give_stable_error_dynamics(self):
        # Against a plant at rest at the origin the estimation error obeys
        # e' = A e, whose columns are the observer derivatives at unit
        # estimates.  Positive beta1, beta2 (all ChannelGains accepts) make A
        # Hurwitz for every eps.
        rng = np.random.default_rng(11)
        for _ in range(200):
            b1, b2 = 10.0 ** rng.uniform(-3, 3, 2)
            eps = rng.uniform(0.01, 1.0)
            a = np.column_stack([hgo_derivative(1.0, 0.0, b1, b2, eps, 0.0, 0.0, 0.0),
                                 hgo_derivative(0.0, 1.0, b1, b2, eps, 0.0, 0.0, 0.0)])
            assert np.all(np.linalg.eigvals(a).real < 0.0)
