"""Quadrotor rigid-body model and motor mixing.

State convention (12 entries, in this order):

    0  roll angle          [rad]      1  roll rate    [rad/s]
    2  pitch angle         [rad]      3  pitch rate   [rad/s]
    4  yaw angle           [rad]      5  yaw rate     [rad/s]
    6  x position          [m]        7  x velocity   [m/s]
    8  y position          [m]        9  y velocity   [m/s]
    10 z position (up)     [m]        11 z velocity   [m/s]

Roll and pitch are only valid on (-pi/2, pi/2); the simulation loop aborts
well before the boundary, at ANGLE_LIMIT.  The airframe model is stated once,
here, with its two inverses, the mixer and the extraction: each acceleration
row is a model function plus the disturbance, and the torque law and both
observers use the same functions.  The rotational rows read one row per axis,
built once per QuadrotorParams, at the (roll, pitch, yaw) rate triple.

Inputs are the total thrust U_p [N], force-like roll/pitch inputs U_phi and
U_theta (they enter the angular accelerations scaled by arm_length/inertia),
and the yaw torque U_psi [N m].  The mixing convention is a cross
configuration with rotors 2/4 driving roll, rotors 1/3 driving pitch, and
alternating spin directions driving yaw:

    U_p     = b (w1^2 + w2^2 + w3^2 + w4^2)
    U_phi   = b (w4^2 - w2^2)
    U_theta = b (w3^2 - w1^2)
    U_psi   = d (w1^2 - w2^2 + w3^2 - w4^2)
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DenominatorTooSmallError, require_fields, require_finite

# Roll and pitch must stay 0.05 rad inside +-pi/2 (the model's validity range) or the run aborts.
ANGLE_LIMIT = math.pi / 2.0 - 0.05

# Below this U_z + g value [m/s^2] the attitude extraction is rejected.
MIN_EXTRACTION_DENOMINATOR = 0.1


class ControlInputs(NamedTuple):
    up: float      # total thrust [N], nonnegative
    uphi: float    # roll input [N]
    utheta: float  # pitch input [N]
    upsi: float    # yaw torque [N m]


class RotorSpeeds(NamedTuple):
    w1: float
    w2: float
    w3: float
    w4: float


class MixResult(NamedTuple):
    speeds: RotorSpeeds
    clamped: bool  # True when a negative squared speed had to be zeroed


@dataclass(frozen=True)
class QuadrotorParams:
    """Physical constants of the airframe (defaults: 0.65 kg cross frame), each finite and > 0."""

    g: float = 9.81          # gravity [m/s^2]
    m: float = 0.650         # mass [kg]
    l: float = 0.235         # arm length, center of mass to rotor [m]
    b: float = 2.980e-6      # thrust coefficient [N s^2]
    d: float = 7.5e-7        # rotor drag (torque) coefficient [N m s^2]
    Ir: float = 3.357e-5     # rotor inertia [kg m^2]
    Ix: float = 7.5e-3       # airframe inertia, roll [kg m^2]
    Iy: float = 7.5e-3       # airframe inertia, pitch [kg m^2]
    Iz: float = 1.3e-3       # airframe inertia, yaw [kg m^2]
    # None: residual propeller speed is computed from the rotor speeds with
    # the alternating-sign convention.  A float pins it to that constant.
    fixed_residual_speed: Optional[float] = None

    def __post_init__(self):
        constants = ("g", "m", "l", "b", "d", "Ir", "Ix", "Iy", "Iz")
        require_fields(self, **{name: getattr(self, name) > 0.0 for name in constants})
        if self.fixed_residual_speed is not None:
            require_fields(self, fixed_residual_speed=True)

    @cached_property
    def _axis_rows(self):
        # Per axis (a, b, c_ab, c_w, inertia, gain); attitude_coupling reads the first five.
        return {"roll": (1, 2, self.Iy - self.Iz, self.Ir, self.Ix, self.l / self.Ix),
                "pitch": (0, 2, self.Iz - self.Ix, -self.Ir, self.Iy, self.l / self.Iy),
                "yaw": (0, 1, self.Ix - self.Iy, 0.0, self.Iz, 1.0 / self.Iz)}


def attitude_coupling(
    axis: str, params: QuadrotorParams, rates: Sequence[float], omega_r: float
) -> float:
    """Torque-free angular acceleration of one axis [rad/s^2].

    rates is the (roll, pitch, yaw) triple; the axis's row picks ra = rates[a] and
    rb = rates[b] and gives (c_ab ra rb + c_w omega_r ra) / inertia.
    """
    a, b, c_ab, c_w, inertia, _ = params._axis_rows[axis]
    return (c_ab * rates[a] * rates[b] + c_w * omega_r * rates[a]) / inertia


def attitude_input_gain(axis: str, params: QuadrotorParams) -> float:
    """Gain from the channel input to angular acceleration [1/(kg m)] or [1/(kg m^2)]."""
    return params._axis_rows[axis][5]


def acceleration_from_attitude(
    params: QuadrotorParams, phi: float, theta: float, psi: float, up: float
):
    """Translational acceleration (ax, ay, az) produced by attitude + thrust.

    The forward model that extract_thrust_and_attitude inverts.
    The round trip returns each virtual acceleration within 4 eps acc**2/(uz + g),
    acc = up/m and eps the float64 epsilon: to rounding, not exactly.
    """
    sphi, cphi = math.sin(phi), math.cos(phi)
    stheta = math.sin(theta)
    spsi, cpsi = math.sin(psi), math.cos(psi)
    acc = up / params.m
    return ((cphi * stheta * cpsi + sphi * spsi) * acc,
            (cphi * stheta * spsi - sphi * cpsi) * acc,
            cphi * math.cos(theta) * acc - params.g)


def extract_thrust_and_attitude(
    params: QuadrotorParams,
    ux: float,
    uy: float,
    uz: float,
    psi_des: float,
):
    """(phi_des, theta_des, psi_des, up) realizing the virtual accelerations.

    Pitch comes first, then roll using the pitch result, then thrust using
    both; the atan range keeps the angles inside (-pi/2, pi/2).  Raises
    DenominatorTooSmallError near the free-fall singularity.
    """
    require_finite((ux, uy, uz), "virtual control")
    require_finite((psi_des,), "yaw setpoint")
    den = uz + params.g
    if den < MIN_EXTRACTION_DENOMINATOR:
        raise DenominatorTooSmallError(den, MIN_EXTRACTION_DENOMINATOR)
    spsi, cpsi = math.sin(psi_des), math.cos(psi_des)
    theta_des = math.atan((ux * cpsi + uy * spsi) / den)
    phi_des = math.atan((ux * spsi - uy * cpsi) * math.cos(theta_des) / den)
    up = params.m * den / (math.cos(phi_des) * math.cos(theta_des))
    return phi_des, theta_des, psi_des, up


def state_derivative(
    params: QuadrotorParams,
    state: Sequence[float],
    inputs: ControlInputs,
    omega_r: float,
    disturbance: Sequence[float] = (0.0,) * 6,
) -> np.ndarray:
    """Time derivative of the 12-dimensional state.

    omega_r is the residual propeller speed producing gyroscopic coupling in
    the roll and pitch rows.  Each acceleration row is the model term plus
    its entry of the disturbance vector (angular first, then translational).
    """
    phi, dphi, theta, dtheta, psi, dpsi, _, vx, _, vy, _, vz = state
    up, uphi, utheta, upsi = inputs
    require_finite(state, "state")
    require_finite(inputs, "inputs")
    require_finite(disturbance, "disturbance")
    require_finite((omega_r,), "residual speed")
    if up < 0.0:
        raise ValueError(f"thrust must be nonnegative, got {up}")

    ax, ay, az = acceleration_from_attitude(params, phi, theta, psi, up)
    d_phi, d_theta, d_psi, d_x, d_y, d_z = disturbance
    rates = (dphi, dtheta, dpsi)
    return np.array(
        [
            dphi,
            attitude_coupling("roll", params, rates, omega_r)
            + attitude_input_gain("roll", params) * uphi + d_phi,
            dtheta,
            attitude_coupling("pitch", params, rates, omega_r)
            + attitude_input_gain("pitch", params) * utheta + d_theta,
            dpsi,
            attitude_coupling("yaw", params, rates, omega_r)
            + attitude_input_gain("yaw", params) * upsi + d_psi,
            vx,
            ax + d_x,
            vy,
            ay + d_y,
            vz,
            az + d_z,
        ]
    )


def mix_inputs_to_rotor_speeds(params: QuadrotorParams, u: ControlInputs) -> MixResult:
    """Invert the mixing for the squared speeds, clamping negatives to zero.

    The clamp is saturation, not an error: the result is flagged so callers
    can count events.  Without clamping, the forward mixing of the module
    docstring maps the speeds back to u within 8 eps up on the forces and
    8 eps (d/b) up on the yaw torque (eps: float64 epsilon), not exactly.
    """
    require_finite(u, "inputs")
    up, uphi, utheta, upsi = u
    total = up / params.b              # s1 + s2 + s3 + s4
    roll = uphi / params.b             # s4 - s2
    pitch = utheta / params.b          # s3 - s1
    yaw = upsi / params.d              # s1 - s2 + s3 - s4
    odd = 0.5 * (total + yaw)          # s1 + s3
    even = 0.5 * (total - yaw)         # s2 + s4
    s1 = 0.5 * (odd - pitch)
    s2 = 0.5 * (even - roll)
    s3 = 0.5 * (odd + pitch)
    s4 = 0.5 * (even + roll)
    clamped = s1 < 0.0 or s2 < 0.0 or s3 < 0.0 or s4 < 0.0
    if clamped:
        s1, s2, s3, s4 = (0.0 if sq < 0.0 else sq for sq in (s1, s2, s3, s4))
    speeds = RotorSpeeds(math.sqrt(s1), math.sqrt(s2), math.sqrt(s3), math.sqrt(s4))
    return MixResult(speeds, clamped)


def residual_speed(w: RotorSpeeds) -> float:
    """Residual propeller speed: the alternating-sign sum of the rotor speeds."""
    return -w.w1 + w.w2 - w.w3 + w.w4
