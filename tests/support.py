"""Shared helpers: single-channel closed-loop rigs and test oracles."""

import numpy as np

from quadtrack import ChannelGains, QuadrotorParams
from quadtrack.attitude import attitude_torque
from quadtrack.channel import (
    channel_errors,
    command_filter_derivative,
    do_derivative,
    do_estimate,
    first_order_filter_derivative,
)
from quadtrack.engine import rk4_step


def rotor_speeds_to_inputs(params: QuadrotorParams, w):
    """Forward mixing: rotor speeds (w1, w2, w3, w4) [rad/s] to (up, uphi, utheta, upsi).

    The oracle for mix_inputs_to_rotor_speeds, which inverts it.
    """
    s1, s2, s3, s4 = (wi * wi for wi in w)
    return (
        params.b * (s1 + s2 + s3 + s4),
        params.b * (s4 - s2),
        params.b * (s3 - s1),
        params.d * (s1 - s2 + s3 - s4),
    )


def simulate_roll_regulation(
    gains: ChannelGains,
    params: QuadrotorParams = QuadrotorParams(),
    x1_0: float = 0.1,
    reference: float = 0.0,
    disturbance=lambda t: 0.0,
    use_do: bool = True,
    t_end: float = 5.0,
    dt: float = 1e-3,
):
    """Roll channel in isolation with exact state feedback.

    Plant is the bare roll double integrator (no cross coupling, no residual
    propeller speed), so the control law's nominal model is exact.  State
    vector: [x1, x2, z1, z2, sigma, gamma].

    Returns (t, states, signals) with signals columns
    (xi1, xi2, dhat, torque).
    """
    g1 = params.l / params.Ix

    def law(s):
        x1, x2, z1, z2, sg, gm = s
        dz1, dz2 = command_filter_derivative(z1, z2, gains.m1, gains.m2, reference)
        xi1, xi2, nu = channel_errors(gains.p, x1, x2, z1, z2, sg)
        dhat = do_estimate(gm, gains.lam, x2) if use_do else 0.0
        dsg = first_order_filter_derivative(sg, nu, gains.tau)
        u = attitude_torque("roll", params, gains.k, xi1, xi2, dsg,
                            (x2, 0.0, 0.0), 0.0, dz2, dhat)
        return dz1, dz2, dsg, xi1, xi2, dhat, u

    def deriv(t, s):
        x1, x2, _, _, _, gm = s
        dz1, dz2, dsg, _, _, _, u = law(s)
        dgm = do_derivative(gm, gains.lam, x2, 0.0, g1 * u) if use_do else 0.0
        return np.array([x2, g1 * u + disturbance(t), dz1, dz2, dsg, dgm])

    n = int(round(t_end / dt))
    # command filter on the reference; lag filter starts at its input
    states = rk4_trajectory(
        deriv, [x1_0, 0.0, reference, 0.0, -gains.p * (x1_0 - reference), 0.0], n, dt)
    return np.arange(n + 1) * dt, states, np.array([law(s)[3:] for s in states])


def rk4_trajectory(f, s0, n: int, dt: float):
    """s0 and the state after each of n RK4 steps of f, step i from t = i dt, as n + 1 rows."""
    out = np.empty((n + 1, len(s0)))
    out[0] = s = s0
    for i in range(n):
        s = rk4_step(f, s, i * dt, dt)
        out[i + 1] = s
    return out
