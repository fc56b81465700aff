import math

import numpy as np
import pytest

from quadtrack import (
    do_derivative,
    do_estimate,
    hgo_derivative,
    rk4_step,
)

DT = 1e-3


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

        s = np.array([0.0, 0.0])
        for i in range(1000):
            s = rk4_step(f, s, i * DT, DT)
        dtilde = do_estimate(s[1], lam, s[0]) - d
        assert abs(dtilde) == pytest.approx(math.exp(-2.0), abs=1e-4)

    @pytest.mark.parametrize("lam", [2.0, 5.0, 10.0])
    def test_log_error_slope_matches_bandwidth(self, lam):
        d = 0.7

        def f(t, s):
            x2, gamma = s
            return np.array([d, do_derivative(gamma, lam, x2, 0.0, 0.0)])

        s = np.array([0.0, 0.0])
        n = int(round((4.0 / lam) / DT))
        logs = np.empty(n + 1)
        logs[0] = math.log(abs(do_estimate(s[1], lam, s[0]) - d))
        for i in range(n):
            s = rk4_step(f, s, i * DT, DT)
            logs[i + 1] = math.log(abs(do_estimate(s[1], lam, s[0]) - d))
        t = np.arange(n + 1) * DT
        slope = np.polyfit(t, logs, 1)[0]
        assert slope == pytest.approx(-lam, rel=0.02)

    def test_ramp_disturbance_constant_lag(self):
        # d(t) = c t: the error settles at -c/lam (solve dtilde' = -lam dtilde - c).
        lam, c = 5.0, 0.4

        def f(t, s):
            x2, gamma = s
            return np.array([c * t, do_derivative(gamma, lam, x2, 0.0, 0.0)])

        s = np.array([0.0, 0.0])
        n = int(round(6.0 / DT))
        for i in range(n):
            s = rk4_step(f, s, i * DT, DT)
        dtilde = do_estimate(s[1], lam, s[0]) - c * (n * DT)
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

            s = np.zeros(4)
            sup = 0.0
            n = int(round(t_end / DT))
            for i in range(n):
                s = rk4_step(f, s, i * DT, DT)
                if (i + 1) * DT > t_end / 2:
                    sup = max(sup, abs(s[0] - s[2]), abs(s[1] - s[3]))
            return sup

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

            s = np.array([delta0, 0.0, 0.0, 0.0])
            top = 0.0
            for i in range(int(round(3.0 * eps / dt))):  # past the peak at s* = 0.91
                s = rk4_step(f, s, i * dt, dt)
                top = max(top, abs(s[3]))
            return top

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
