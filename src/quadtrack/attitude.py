"""Torque law of the roll, pitch and yaw channels.

The channel law with the gyroscopic coupling folded into xi1, divided by the
input gain; both are the plant's own model functions, from vehicle.  It is kept
apart because the benchmark's tracer resolves those two names in this module.
"""

from typing import Sequence

from .channel import position_virtual_control
from .vehicle import QuadrotorParams, attitude_coupling, attitude_input_gain


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
