import numpy as np
import pytest

from quadtrack import (
    ChannelGains,
    QuadrotorParams,
    attitude_coupling,
    attitude_input_gain,
    attitude_torque,
    auxiliary_control,
    channel_errors,
)
from support import simulate_roll_regulation

PARAMS = QuadrotorParams()


class TestAuxiliaryControl:
    def test_zero(self):
        assert auxiliary_control(100.0, 0.0, 0.0) == 0.0

    def test_proportional_term(self):
        assert auxiliary_control(100.0, 0.01, 0.0) == pytest.approx(-1.0)

    def test_feedforward_pass_through(self):
        assert auxiliary_control(100.0, 0.0, 0.5) == 0.5


class TestChannelErrors:
    def test_perfect_tracking(self):
        xi1, xi2, e1, nu = channel_errors(100.0, 0.2, 0.35, 0.2, 0.3, 0.05)
        assert xi1 == 0.0
        assert xi2 == pytest.approx(0.0)
        assert e1 == 0.05 - nu

    def test_output_error(self):
        xi1, _, _, _ = channel_errors(1.0, 0.1, 0.0, 0.0, 0.0, 0.0)
        assert xi1 == pytest.approx(0.1)

    def test_definitions_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, xh1, xh2, z1, z2, sg = rng.normal(0.0, 2.0, 6)
            p = abs(p) + 0.1
            xi1, xi2, e1, nu = channel_errors(p, xh1, xh2, z1, z2, sg)
            assert xi1 == xh1 - z1
            assert xi2 == xh2 - sg - z2
            assert nu == -p * xi1 + z2
            assert e1 == sg - nu


class TestTorqueLaw:
    def test_equilibrium_output_is_zero(self):
        for axis in ("roll", "pitch", "yaw"):
            u = attitude_torque(axis, PARAMS, 120.0, 0.05, 0.0, 0.0, 0.3, 0.3,
                                0.0, 0.0, 0.0, 0.0, 0.0)
            assert u == 0.0

    def test_roll_rate_error_gain(self):
        # only k*xi2 active: u = -(Ix/l) * k * xi2
        u = attitude_torque("roll", PARAMS, 120.0, 0.05, 0.0, 0.1, 0.0, 0.0,
                            0.0, 0.0, 0.0, 0.0, 0.0)
        assert u == pytest.approx(-(PARAMS.Ix / PARAMS.l) * 12.0, rel=1e-12)
        assert u == pytest.approx(-0.3830, abs=5e-5)

    def test_yaw_coupling_vanishes_with_symmetric_inertia(self):
        # Ix == Iy on this airframe, so equal cross rates add nothing.
        assert attitude_coupling("yaw", PARAMS, 1.0, 1.0, 50.0) == 0.0
        u = attitude_torque("yaw", PARAMS, 10.0, 0.05, 0.02, 0.1, 0.05, 0.01,
                            1.0, 1.0, 50.0, 0.03, 0.2)
        expected = -PARAMS.Iz * (0.02 - 0.03 - (0.05 - 0.01) / 0.05 + 10.0 * 0.1 + 0.2)
        assert u == pytest.approx(expected, rel=1e-12)

    def test_affine_in_disturbance_estimate(self):
        rng = np.random.default_rng(9)
        for axis in ("roll", "pitch", "yaw"):
            g1 = attitude_input_gain(axis, PARAMS)
            for _ in range(25):
                xi1, xi2, nu, sg, ra, rb, omr, dz2, dhat = rng.normal(0.0, 1.0, 9)
                delta = rng.normal()
                u0 = attitude_torque(axis, PARAMS, 10.0, 0.05, xi1, xi2, nu, sg,
                                     ra, rb, omr, dz2, dhat)
                u1 = attitude_torque(axis, PARAMS, 10.0, 0.05, xi1, xi2, nu, sg,
                                     ra, rb, omr, dz2, dhat + delta)
                assert u1 - u0 == pytest.approx(-delta / g1, rel=1e-9, abs=1e-12)

    def test_coupling_expressions(self):
        p = PARAMS
        assert attitude_coupling("roll", p, 2.0, 3.0, 10.0) == pytest.approx(
            ((p.Iy - p.Iz) * 6.0 + p.Ir * 10.0 * 2.0) / p.Ix)
        assert attitude_coupling("pitch", p, 2.0, 3.0, 10.0) == pytest.approx(
            ((p.Iz - p.Ix) * 6.0 - p.Ir * 10.0 * 2.0) / p.Iy)
        assert attitude_coupling("yaw", p, 2.0, 3.0, 0.0) == pytest.approx(
            (p.Ix - p.Iy) * 6.0 / p.Iz)


ROLL_GAINS = ChannelGains(p=100.0, k=120.0, lam=10.0)


class TestClosedLoopRegulation:
    def test_tracking_error_settles(self):
        t, _, sigs = simulate_roll_regulation(ROLL_GAINS)
        xi1 = np.abs(sigs[:, 0])
        above = np.nonzero(xi1 > 1e-3)[0]
        settle = t[above[-1] + 1]
        # locked from the first validated run: 0.507 s
        assert settle <= 0.6
        assert xi1[-1] < 1e-9

    def test_do_reduces_steady_error_under_constant_disturbance(self):
        _, _, with_do = simulate_roll_regulation(
            ROLL_GAINS, x1_0=0.0, disturbance=lambda t: 0.5, t_end=8.0)
        _, _, without = simulate_roll_regulation(
            ROLL_GAINS, x1_0=0.0, disturbance=lambda t: 0.5, t_end=8.0, use_do=False)
        steady_with = np.abs(with_do[-1000:, 0]).max()
        steady_without = np.abs(without[-1000:, 0]).max()
        assert steady_with < steady_without


class TestGainValidation:
    def test_defaults_valid(self):
        ChannelGains(p=1.0, k=1.0, lam=1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"p": 0.0}, {"k": -1.0}, {"lam": 0.5}, {"tau": 0.0}, {"tau": 1.5},
            {"m1": 0.0}, {"m2": -0.1}, {"beta1": 0.0}, {"beta2": 0.0},
            {"eps": 0.0}, {"eps": 1.2},
        ],
    )
    def test_rejects_out_of_range(self, kw):
        base = {"p": 1.0, "k": 1.0, "lam": 1.0}
        base.update(kw)
        with pytest.raises(ValueError):
            ChannelGains(**base)

    def test_rejects_eps_whose_square_underflows(self):
        # 1e-200 is in (0, 1], but the HGO would divide by 1e-200**2 == 0.0.
        with pytest.raises(ValueError, match="eps"):
            ChannelGains(p=1.0, k=1.0, lam=1.0, eps=1e-200)
        assert ChannelGains(p=1.0, k=1.0, lam=1.0, eps=1e-150).eps == 1e-150

    def test_lyapunov_margin_not_enforced(self):
        # p and k below the 1/2 damping margin are accepted, as the stock
        # position gains (p = 0.1) need
        g = ChannelGains(p=0.1, k=0.1, lam=5.0)
        assert (g.p, g.k) == (0.1, 0.1)
