"""Outer-loop position control and resolution of the underactuation.

The three translational axes produce acceleration-dimension virtual
controls; thrust magnitude and the desired roll/pitch angles are then
extracted so the inner loop can realize them.  The extraction is singular
near free fall (U_z + g -> 0), which is guarded.
"""

import math
from bisect import bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DenominatorTooSmallError, NonFiniteError
from .vehicle import QuadrotorParams, virtual_from_angles

POSITION_AXES = ("x", "y", "z")

# Below this U_z + g value [m/s^2] the attitude extraction is rejected.
MIN_EXTRACTION_DENOMINATOR = 0.1


class AttitudeSetpoint(NamedTuple):
    phi_des: float    # desired roll [rad], inside (-pi/2, pi/2)
    theta_des: float  # desired pitch [rad], inside (-pi/2, pi/2)
    psi_des: float    # desired yaw [rad], passed through
    up: float         # total thrust [N], nonnegative


def position_virtual_control(
    k: float,
    tau: float,
    xi1: float,
    xi2: float,
    nu: float,
    sigma: float,
    dz2: float,
    dhat: float,
) -> float:
    """Acceleration command for one translational axis [m/s^2].

    Mirrors the attitude law with unit input gain and no coupling term; the
    disturbance estimate is subtracted so the observer closes the loop
    (pass dhat = 0 to reproduce the bare law).
    """
    return -xi1 + dz2 + (nu - sigma) / tau - k * xi2 - dhat


def extract_thrust_and_attitude(
    params: QuadrotorParams,
    ux: float,
    uy: float,
    uz: float,
    psi_des: float,
) -> AttitudeSetpoint:
    """Thrust and desired roll/pitch realizing the virtual accelerations.

    Pitch comes first, then roll using the pitch result, then thrust using
    both; the atan range keeps the angles inside (-pi/2, pi/2).  Raises
    DenominatorTooSmallError near the free-fall singularity.
    """
    for v in (ux, uy, uz, psi_des):
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite virtual control input: {v!r}")
    den = uz + params.g
    if den < MIN_EXTRACTION_DENOMINATOR:
        raise DenominatorTooSmallError(den, MIN_EXTRACTION_DENOMINATOR)
    spsi, cpsi = math.sin(psi_des), math.cos(psi_des)
    theta_des = math.atan((ux * cpsi + uy * spsi) / den)
    phi_des = math.atan((ux * spsi - uy * cpsi) * math.cos(theta_des) / den)
    up = params.m * den / (math.cos(phi_des) * math.cos(theta_des))
    return AttitudeSetpoint(phi_des, theta_des, psi_des, up)


def acceleration_from_attitude(
    params: QuadrotorParams, phi: float, theta: float, psi: float, up: float
):
    """Translational acceleration (ax, ay, az) produced by attitude + thrust.

    This is the forward model that extract_thrust_and_attitude inverts; the
    round trip is exact away from the free-fall guard.
    """
    gx, gy = virtual_from_angles(phi, theta, psi)
    acc = up / params.m
    return gx * acc, gy * acc, math.cos(phi) * math.cos(theta) * acc - params.g


def reference_trajectory(t: float):
    """Built-in mission: a 3 m radius circle at 1/15 rad/s with a 0.1 m/s climb."""
    return (
        3.0 - 3.0 * math.cos(t / 15.0),
        2.0 + 3.0 * math.sin(t / 15.0),
        1.0 + 0.1 * t,
    )


def waypoint_trajectory(points: Sequence[Sequence[float]]):
    """Piecewise-linear trajectory through (t, x, y, z) rows.

    Times must be strictly increasing; the position is held constant before
    the first and after the last waypoint.  Each call makes one bisection
    for all three axes into a table of per-segment slopes and returns what
    np.interp returns on each axis, bit for bit: the waypoint itself at a
    waypoint time and slope * (t - t0) + p0 inside a segment.  A table where
    a segment's time span or per-axis difference overflows is rejected, so
    that value is never NaN and np.interp's NaN retry never applies.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4 or arr.shape[0] < 1:
        raise ValueError("waypoints must be a non-empty sequence of (t, x, y, z) rows")
    if not np.isfinite(arr).all():
        raise ValueError("waypoints must be finite")
    rows = arr.tolist()
    # Per segment j: row[j+1] - row[j], the time span then the three axis differences.
    steps = [[b - a for a, b in zip(r0, r1)] for r0, r1 in zip(rows, rows[1:])]
    if any(step[0] <= 0.0 for step in steps):
        raise ValueError("waypoint times must be strictly increasing")
    if not all(math.isfinite(v) for step in steps for v in step):
        raise ValueError("waypoint segment spans and differences must be finite")
    times = [row[0] for row in rows]
    pts = [tuple(row[1:]) for row in rows]
    # Per segment and axis: difference / span, as np.interp computes the slope.
    slopes = [tuple(d / span for d in diffs) for span, *diffs in steps]
    last = len(times) - 1

    def trajectory(t: float):
        j = bisect_right(times, t) - 1
        if j < 0:
            return pts[0]
        if j == last or t == times[j]:
            return pts[j]
        (x0, y0, z0), (sx, sy, sz) = pts[j], slopes[j]
        h = t - times[j]
        return sx * h + x0, sy * h + y0, sz * h + z0

    return trajectory
