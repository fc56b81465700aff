"""Shared helpers: single-channel closed-loop rigs and test oracles."""

import numpy as np

from quadtrack import (
    ChannelGains,
    ControlInputs,
    QuadrotorParams,
    attitude_torque,
    channel_errors,
    command_filter_derivative,
    do_derivative,
    do_estimate,
    first_order_filter_derivative,
    rk4_step,
)


def rotor_speeds_to_inputs(params: QuadrotorParams, w) -> ControlInputs:
    """Forward mixing: rotor speeds [rad/s] to the four physical inputs.

    The oracle for mix_inputs_to_rotor_speeds, which inverts it.
    """
    s1, s2, s3, s4 = (wi * wi for wi in w)
    return ControlInputs(
        up=params.b * (s1 + s2 + s3 + s4),
        uphi=params.b * (s4 - s2),
        utheta=params.b * (s3 - s1),
        upsi=params.d * (s1 - s2 + s3 - s4),
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
        u = attitude_torque("roll", params, gains.k, gains.tau, xi1, xi2, nu, sg,
                            0.0, 0.0, 0.0, dz2, dhat)
        return dz1, dz2, nu, xi1, xi2, dhat, u

    def deriv(t, s):
        x1, x2, _, _, sg, gm = s
        dz1, dz2, nu, _, _, _, u = law(s)
        dsg = first_order_filter_derivative(sg, nu, gains.tau)
        dgm = do_derivative(gm, gains.lam, x2, 0.0, g1 * u) if use_do else 0.0
        return np.array([x2, g1 * u + disturbance(t), dz1, dz2, dsg, dgm])

    # command filter on the reference; lag filter starts at its input
    s = np.array([x1_0, 0.0, reference, 0.0, 0.0, 0.0])
    s[4] = -gains.p * (s[0] - s[2])
    n = int(round(t_end / dt))
    t = np.arange(n + 1) * dt
    states = np.empty((n + 1, 6))
    sigs = np.empty((n + 1, 4))
    states[0] = s
    sigs[0] = law(s)[3:]
    for i in range(n):
        s = rk4_step(deriv, s, t[i], dt)
        states[i + 1] = s
        sigs[i + 1] = law(s)[3:]
    return t, states, sigs
