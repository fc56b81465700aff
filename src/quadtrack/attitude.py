"""Inner-loop output-feedback backstepping laws for roll, pitch, and yaw.

Each axis runs the same machinery: a command filter smoothing the desired
angle, a tracking error xi1, an auxiliary rate command nu, a first-order
lag sigma on nu, a rate error xi2, and a torque law that cancels the known
gyroscopic coupling and the estimated disturbance.
"""

import math
from dataclasses import dataclass

from .vehicle import QuadrotorParams

ATTITUDE_AXES = ("roll", "pitch", "yaw")


@dataclass(frozen=True)
class ChannelGains:
    """Gain bundle for one control channel (attitude or position).

    p and k are the surface and backstepping gains; the damping argument
    behind the design wants both above 1/2, but the stock position gains
    ship with p = 0.1, so that margin is not enforced.
    """

    p: float               # surface gain on the tracking error [1/s]
    k: float               # backstepping gain on the rate error [1/s]
    lam: float             # disturbance-observer bandwidth [1/s], > 1/2
    tau: float = 0.05      # dynamic-surface filter time constant [s], in (0, 1]
    m1: float = 1.0        # command-filter square-root gain
    m2: float = 1.0        # command-filter rate gain
    beta1: float = 1.0     # HGO output-injection gain
    beta2: float = 2.0     # HGO rate-injection gain
    eps: float = 0.05      # HGO time-scale parameter, in (0, 1]

    def __post_init__(self):
        checks = (
            ("p", self.p > 0.0),
            ("k", self.k > 0.0),
            ("lam", self.lam > 0.5),
            ("tau", 0.0 < self.tau <= 1.0),
            ("m1", self.m1 > 0.0),
            ("m2", self.m2 > 0.0),
            ("beta1", self.beta1 > 0.0),
            ("beta2", self.beta2 > 0.0),
            # The HGO divides by eps * eps, so its square must not underflow to 0.
            ("eps", 0.0 < self.eps <= 1.0 and self.eps * self.eps > 0.0),
        )
        for name, ok in checks:
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(f"ChannelGains.{name} out of range: {value}")


def auxiliary_control(p: float, xi1: float, z2: float) -> float:
    """Rate command nu = -p xi1 + z2 (feedback plus reference-rate feedforward)."""
    return -p * xi1 + z2


def channel_errors(
    p: float, xhat1: float, xhat2: float, z1: float, z2: float, sigma: float
):
    """Error set (xi1, xi2, e1, nu) for one channel, evaluated at estimates.

    xi1 = xhat1 - z1 is the tracking error against the filtered reference,
    xi2 = xhat2 - sigma - z2 the rate error against the filtered auxiliary
    control plus reference rate, and e1 = sigma - nu the lag boundary error.
    """
    xi1 = xhat1 - z1
    nu = auxiliary_control(p, xi1, z2)
    xi2 = xhat2 - sigma - z2
    e1 = sigma - nu
    return xi1, xi2, e1, nu


def attitude_coupling(
    axis: str, params: QuadrotorParams, rate_a: float, rate_b: float, omega_r: float
) -> float:
    """Torque-free angular acceleration of one axis [rad/s^2].

    Rate arguments by axis: roll -> (pitch rate, yaw rate),
    pitch -> (roll rate, yaw rate), yaw -> (roll rate, pitch rate).
    """
    if axis == "roll":
        return ((params.Iy - params.Iz) * rate_a * rate_b + params.Ir * omega_r * rate_a) / params.Ix
    if axis == "pitch":
        return ((params.Iz - params.Ix) * rate_a * rate_b - params.Ir * omega_r * rate_a) / params.Iy
    if axis == "yaw":
        return (params.Ix - params.Iy) * rate_a * rate_b / params.Iz
    raise ValueError(f"unknown attitude axis: {axis!r}")


def attitude_input_gain(axis: str, params: QuadrotorParams) -> float:
    """Gain from the channel input to angular acceleration [1/(kg m)] or [1/(kg m^2)]."""
    if axis == "roll":
        return params.l / params.Ix
    if axis == "pitch":
        return params.l / params.Iy
    if axis == "yaw":
        return 1.0 / params.Iz
    raise ValueError(f"unknown attitude axis: {axis!r}")


def attitude_torque(
    axis: str,
    params: QuadrotorParams,
    k: float,
    tau: float,
    xi1: float,
    xi2: float,
    nu: float,
    sigma: float,
    rate_a: float,
    rate_b: float,
    omega_r: float,
    dz2: float,
    dhat: float,
) -> float:
    """Channel input (U_phi, U_theta, or U_psi) from the backstepping law.

    The law inverts the input gain and cancels the modeled coupling, the
    disturbance estimate, and the filter mismatch, while feeding forward the
    command-rate derivative dz2:

        u = -g1^-1 (xi1 + coupling - dz2 - (nu - sigma)/tau + k xi2 + dhat)
    """
    coupling = attitude_coupling(axis, params, rate_a, rate_b, omega_r)
    g1 = attitude_input_gain(axis, params)
    return -(xi1 + coupling - dz2 - (nu - sigma) / tau + k * xi2 + dhat) / g1
