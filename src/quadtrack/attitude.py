"""Inner-loop output-feedback backstepping for roll, pitch, and yaw.

Each axis runs the same machinery: a command filter smoothing the desired
angle, a tracking error xi1, an auxiliary rate command nu, a first-order
lag sigma on nu, a rate error xi2, and the translational backstepping law
with the gyroscopic coupling folded into xi1, divided by the input gain.
The coupling and the gain are the plant's own model functions, from vehicle.
"""

from dataclasses import dataclass
from typing import Sequence

from .errors import require_fields
from .position import position_virtual_control
from .vehicle import QuadrotorParams, attitude_coupling, attitude_input_gain


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
        require_fields(
            self,
            p=self.p > 0.0,
            k=self.k > 0.0,
            lam=self.lam > 0.5,
            tau=0.0 < self.tau <= 1.0,
            m1=self.m1 > 0.0,
            m2=self.m2 > 0.0,
            beta1=self.beta1 > 0.0,
            beta2=self.beta2 > 0.0,
            # The HGO divides by eps * eps, so its square must not underflow to 0.
            eps=0.0 < self.eps <= 1.0 and self.eps * self.eps > 0.0,
        )


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


def attitude_torque(
    axis: str,
    params: QuadrotorParams,
    k: float,
    xi1: float,
    xi2: float,
    dsigma: float,
    rates: Sequence[float],
    omega_r: float,
    dz2: float,
    dhat: float,
) -> float:
    """Channel input (U_phi, U_theta, or U_psi) from the backstepping law.

    The translational law (position_virtual_control) with the modeled coupling
    at the (roll, pitch, yaw) rates folded into xi1, divided by the input gain g1:

        u = (-(xi1 + coupling) + dz2 + dsigma - k xi2 - dhat) / g1
    """
    coupling = attitude_coupling(axis, params, rates, omega_r)
    g1 = attitude_input_gain(axis, params)
    return position_virtual_control(k, xi1 + coupling, xi2, dsigma, dz2, dhat) / g1
