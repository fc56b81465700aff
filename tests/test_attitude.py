import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtrack import ChannelGains, QuadrotorParams
from quadtrack.attitude import attitude_torque
from quadtrack.channel import (
    channel_errors,
    first_order_filter_derivative,
    position_virtual_control,
)
from quadtrack.vehicle import attitude_coupling, attitude_input_gain
from support import simulate_roll_regulation

PARAMS = QuadrotorParams()


def _bits(x):
    return struct.pack("<d", x)


class TestChannelErrors:
    def test_definitions_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, xh1, xh2, z1, z2, sg = rng.normal(0.0, 2.0, 6)
            p = abs(p) + 0.1
            xi1, xi2, nu = channel_errors(p, xh1, xh2, z1, z2, sg)
            assert xi1 == xh1 - z1
            assert xi2 == xh2 - sg - z2
            assert nu == -p * xi1 + z2


class TestTorqueLaw:
    # The per-axis rows against the Euler rows written out term by term at
    # body rates (p, q, r): roll and pitch bit for bit, yaw (whose row adds
    # 0 * omega_r * p) in value; Ix varies so that the yaw row is not zero.
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(rates=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
           omega_r=st.floats(-2000.0, 2000.0), ix=st.floats(1e-3, 2e-2))
    def test_coupling_expressions(self, rates, omega_r, ix):
        prm = QuadrotorParams(Ix=ix)
        p, q, r = rates
        roll = ((prm.Iy - prm.Iz) * q * r + prm.Ir * omega_r * q) / prm.Ix
        pitch = ((prm.Iz - prm.Ix) * p * r - prm.Ir * omega_r * p) / prm.Iy
        yaw = (prm.Ix - prm.Iy) * p * q / prm.Iz
        assert _bits(attitude_coupling("roll", prm, rates, omega_r)) == _bits(roll)
        assert _bits(attitude_coupling("pitch", prm, rates, omega_r)) == _bits(pitch)
        assert attitude_coupling("yaw", prm, rates, omega_r) == yaw
        gains = tuple(attitude_input_gain(axis, prm) for axis in ("roll", "pitch", "yaw"))
        assert gains == (prm.l / prm.Ix, prm.l / prm.Iy, 1.0 / prm.Iz)

    def test_unknown_axis_is_named(self):
        with pytest.raises(KeyError, match="bank"):
            attitude_coupling("bank", PARAMS, (0.0, 0.0, 0.0), 0.0)
        with pytest.raises(KeyError, match="bank"):
            attitude_input_gain("bank", PARAMS)


class TestOneLaw:
    # The attitude torque is the translational law with the coupling folded
    # into xi1, over the input gain.  As a number it equals the closed form
    # -(xi1 + coupling - dz2 - dsigma + k xi2 + dhat) / g1, because rounding
    # is symmetric; only where that form rounds to an exact zero does the
    # sign of the zero differ.
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("roll", "pitch", "yaw")), st.floats(1e-3, 1e3), st.floats(1e-3, 1.0),
           st.lists(st.floats(-1e3, 1e3), min_size=10, max_size=10))
    def test_torque_is_the_position_law_over_the_input_gain(self, axis, k, tau, values):
        xi1, xi2, nu, sigma, *rates, omr, dz2, dhat = values
        dsigma = first_order_filter_derivative(sigma, nu, tau)
        coupling = attitude_coupling(axis, PARAMS, rates, omr)
        g1 = attitude_input_gain(axis, PARAMS)
        u = attitude_torque(axis, PARAMS, k, xi1, xi2, dsigma, rates, omr, dz2, dhat)
        assert u == -(xi1 + coupling - dz2 - (nu - sigma) / tau + k * xi2 + dhat) / g1
        v = position_virtual_control(k, xi1, xi2, dsigma, dz2, dhat)
        assert _bits(v) == _bits(-xi1 + dz2 + (nu - sigma) / tau - k * xi2 - dhat)
        law = position_virtual_control(k, xi1 + coupling, xi2, dsigma, dz2, dhat)
        assert _bits(u) == _bits(law / g1)


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
    @pytest.mark.parametrize(
        "kw",
        [
            {"p": 0.0}, {"k": -1.0}, {"lam": 0.5}, {"tau": 0.0}, {"tau": 1.5},
            {"m1": 0.0}, {"m2": -0.1}, {"beta1": 0.0}, {"beta2": 0.0},
        ],
    )
    def test_rejects_out_of_range(self, kw):
        base = {"p": 1.0, "k": 1.0, "lam": 1.0}
        base.update(kw)
        with pytest.raises(ValueError):
            ChannelGains(**base)

    def test_lyapunov_margin_not_enforced(self):
        # p and k below the 1/2 damping margin are accepted, as the stock
        # position gains (p = 0.1) need
        g = ChannelGains(p=0.1, k=0.1, lam=5.0)
        assert (g.p, g.k) == (0.1, 0.1)
