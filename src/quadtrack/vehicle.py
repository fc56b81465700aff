"""Quadrotor rigid-body model and motor mixing.

State convention (12 entries, in this order):

    0  roll angle          [rad]      1  roll rate    [rad/s]
    2  pitch angle         [rad]      3  pitch rate   [rad/s]
    4  yaw angle           [rad]      5  yaw rate     [rad/s]
    6  x position          [m]        7  x velocity   [m/s]
    8  y position          [m]        9  y velocity   [m/s]
    10 z position (up)     [m]        11 z velocity   [m/s]

Roll and pitch are only valid on (-pi/2, pi/2); the simulation loop aborts
well before the boundary.

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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import NonFiniteError


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
    """Physical constants of the airframe (defaults: 0.65 kg cross frame)."""

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
        for name in ("g", "m", "l", "b", "d", "Ir", "Ix", "Iy", "Iz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"QuadrotorParams.{name} must be finite and > 0, got {value}")
        if self.fixed_residual_speed is not None and not math.isfinite(self.fixed_residual_speed):
            raise ValueError("fixed_residual_speed must be finite")


def _require_finite(values, what: str):
    # A non-finite term makes the sum non-finite, so a finite sum clears
    # every term at once; only a non-finite sum (which finite terms reach by
    # overflowing it) needs the walk that names the culprit.
    if math.isfinite(sum(values)):
        return
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite value in {what}: {v!r}")


def state_derivative(
    params: QuadrotorParams,
    state: Sequence[float],
    inputs: ControlInputs,
    omega_r: float,
    disturbance: Sequence[float] = (0.0,) * 6,
) -> np.ndarray:
    """Time derivative of the 12-dimensional state.

    omega_r is the residual propeller speed producing gyroscopic coupling in
    the roll and pitch rows.  The disturbance vector is added directly to the
    six acceleration rows (angular first, then translational).
    """
    phi, dphi, theta, dtheta, psi, dpsi, _, vx, _, vy, _, vz = state
    up, uphi, utheta, upsi = inputs
    _require_finite(state, "state")
    _require_finite(inputs, "inputs")
    _require_finite(disturbance, "disturbance")
    if not math.isfinite(omega_r):
        raise NonFiniteError(f"non-finite residual speed: {omega_r!r}")
    if up < 0.0:
        raise ValueError(f"thrust must be nonnegative, got {up}")

    sphi, cphi = math.sin(phi), math.cos(phi)
    stheta, ctheta = math.sin(theta), math.cos(theta)
    spsi, cpsi = math.sin(psi), math.cos(psi)
    acc = up / params.m
    d_phi_, d_theta_, d_psi_, d_x_, d_y_, d_z_ = disturbance

    return np.array(
        [
            dphi,
            dtheta * dpsi * (params.Iy - params.Iz) / params.Ix
            + dtheta * omega_r * params.Ir / params.Ix
            + (params.l / params.Ix) * uphi
            + d_phi_,
            dtheta,
            dphi * dpsi * (params.Iz - params.Ix) / params.Iy
            - dphi * omega_r * params.Ir / params.Iy
            + (params.l / params.Iy) * utheta
            + d_theta_,
            dpsi,
            dphi * dtheta * (params.Ix - params.Iy) / params.Iz
            + upsi / params.Iz
            + d_psi_,
            vx,
            (cphi * stheta * cpsi + sphi * spsi) * acc + d_x_,
            vy,
            (cphi * stheta * spsi - sphi * cpsi) * acc + d_y_,
            vz,
            -params.g + cphi * ctheta * acc + d_z_,
        ]
    )


def rotor_speeds_to_inputs(params: QuadrotorParams, w: RotorSpeeds) -> ControlInputs:
    """Forward mixing: rotor speeds [rad/s] to the four physical inputs."""
    _require_finite(w, "rotor speeds")
    if any(wi < 0.0 for wi in w):
        raise ValueError(f"rotor speeds must be nonnegative, got {tuple(w)}")
    s1, s2, s3, s4 = (wi * wi for wi in w)
    return ControlInputs(
        up=params.b * (s1 + s2 + s3 + s4),
        uphi=params.b * (s4 - s2),
        utheta=params.b * (s3 - s1),
        upsi=params.d * (s1 - s2 + s3 - s4),
    )


def mix_inputs_to_rotor_speeds(params: QuadrotorParams, u: ControlInputs) -> MixResult:
    """Invert the mixing for the squared speeds, clamping negatives to zero.

    The clamp is saturation, not an error: the result is flagged so callers
    can count events.  Without clamping the round trip through
    rotor_speeds_to_inputs is exact.
    """
    _require_finite(u, "inputs")
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


def residual_speed(params: QuadrotorParams, w: RotorSpeeds) -> float:
    """Residual propeller speed: alternating-sign sum, or the pinned constant."""
    if params.fixed_residual_speed is not None:
        return params.fixed_residual_speed
    return -w.w1 + w.w2 - w.w3 + w.w4


def virtual_from_angles(phi: float, theta: float, psi: float):
    """Direction cosines mapping thrust to x/y acceleration (dimensionless).

    These are the two horizontal entries of the body-z column of the rotation
    matrix, so each output lies in [-1, 1].
    """
    sphi, cphi = math.sin(phi), math.cos(phi)
    stheta = math.sin(theta)
    spsi, cpsi = math.sin(psi), math.cos(psi)
    ux = cphi * stheta * cpsi + sphi * spsi
    uy = cphi * stheta * spsi - sphi * cpsi
    return ux, uy
