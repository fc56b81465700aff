"""One channel's control law; all six channels (roll, pitch, yaw, x, y, z) run it.

Each channel carries the rig [z1, z2, sigma, xhat1, xhat2, gamma] on a
scalar double integrator

    d/dt output = rate
    d/dt rate   = coupling + input_term + disturbance

where coupling collects the known model terms on the rate row (the model
functions of vehicle) and input_term is the known input contribution (input
gain times input).  Only outputs are measured; rates come from the
high-gain observer.

The super-twisting command filter (z1, z2) turns a reference signal into a
smoothed copy plus its rate, so the control laws never differentiate a
reference analytically.  The first-order lag sigma sits between
backstepping layers (dynamic surface construction) and supplies the
filtered virtual control together with its derivative (nu - sigma)/tau.

Disturbance observer (gamma).  The design function is linear in the rate
state, p(x) = lam * rate, which gives estimate dynamics

    dhat      = gamma + lam * rate
    dgamma/dt = -lam * gamma - lam * (lam * rate + coupling + input_term)

so with exact rate information the estimation error decays as exp(-lam t).
lam must exceed 1/2 for the closed-loop damping argument to hold.

High-gain observer (xhat1, xhat2).  Gains beta1, beta2 are scaled by 1/eps
and 1/eps^2; smaller eps tracks faster at the price of transient peaking
proportional to (initial output mismatch)/eps.
"""

import math
from dataclasses import dataclass

from .errors import require_fields

# The range of each gain.  The HGO divides by eps * eps, so its square must not underflow to 0.
_RANGES = {**dict.fromkeys(("p", "k", "m1", "m2", "beta1", "beta2"), lambda v: v > 0.0),
           "lam": lambda v: v > 0.5, "tau": lambda v: 0.0 < v <= 1.0,
           "eps": lambda v: 0.0 < v <= 1.0 and v * v > 0.0}


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
        require_fields(self, **_RANGES)


def command_filter_derivative(z1: float, z2: float, m1: float, m2: float, ref: float):
    """Derivatives (dz1, dz2) of the super-twisting command filter.

    z1 chases ref in finite time and z2 recovers the reference rate.  m1
    scales the square-root correction.  |dz2| <= m2, so z2 gains at most m2
    per second: m2 bounds the reference acceleration |ref''| the filter can
    follow, not its slope (Levant, Automatica 1998), and a ramp of any slope
    is followed once z2 has climbed to it.  sign(0) = 0 makes convergence an
    exact equilibrium; under fixed-step integration z2 chatters within m2*dt.
    """
    err = z1 - ref
    s = 1.0 if err > 0.0 else -1.0 if err < 0.0 else 0.0
    dz1 = -m1 * math.sqrt(abs(err)) * s + z2
    dz2 = -m2 * s
    return dz1, dz2


def channel_errors(
    p: float, xhat1: float, xhat2: float, z1: float, z2: float, sigma: float
):
    """Error set (xi1, xi2, nu) for one channel, evaluated at estimates.

    xi1 = xhat1 - z1 is the tracking error against the filtered reference,
    nu = -p xi1 + z2 the auxiliary rate command, and xi2 = xhat2 - sigma - z2
    the rate error against the filtered auxiliary control plus reference rate.
    """
    xi1 = xhat1 - z1
    nu = -p * xi1 + z2
    xi2 = xhat2 - sigma - z2
    return xi1, xi2, nu


def first_order_filter_derivative(sigma: float, nu: float, tau: float) -> float:
    """Lag derivative (nu - sigma)/tau, a stable lag for any tau > 0.  ChannelGains admits tau
    in (0, 1]; that range does not keep a fixed-step integration of the lag stable."""
    return (nu - sigma) / tau


def position_virtual_control(
    k: float,
    xi1: float,
    xi2: float,
    dsigma: float,
    dz2: float,
    dhat: float,
) -> float:
    """Backstepping law in acceleration units, for one translational axis [m/s^2].

    It reads the lag filter's own derivative dsigma, so no virtual control is
    differentiated, and subtracts the disturbance estimate (dhat = 0 gives the
    bare law).  The attitude channels apply it too, through attitude_torque.
    """
    return -xi1 + dz2 + dsigma - k * xi2 - dhat


def do_derivative(
    gamma: float,
    lam: float,
    rate_estimate: float,
    coupling: float,
    input_term: float,
) -> float:
    """Internal-state derivative of the disturbance observer (terms as in hgo_derivative)."""
    return -lam * gamma - lam * (lam * rate_estimate + coupling + input_term)


def do_estimate(gamma: float, lam: float, rate_estimate: float) -> float:
    """Disturbance estimate: internal state plus the rate-linear design term."""
    return gamma + lam * rate_estimate


def hgo_derivative(
    xhat1: float,
    xhat2: float,
    beta1: float,
    beta2: float,
    eps: float,
    y_measured: float,
    f_nominal: float,
    input_term: float,
):
    """Derivatives (dxhat1, dxhat2) of the two-state high-gain observer.

    f_nominal is the modeled rate-row dynamics evaluated at estimates and
    input_term the known input contribution (zero when the input already
    enters through f_nominal).
    """
    innovation = y_measured - xhat1
    dxhat1 = xhat2 + beta1 * innovation / eps
    dxhat2 = f_nominal + input_term + beta2 * innovation / (eps * eps)
    return dxhat1, dxhat2
