"""Closed-loop assembly, fixed-step integration, metrics, and trace output.

All six channels (roll, pitch, yaw, x, y, z) run one law on one rig of
[z1, z2, sigma, xhat1, xhat2, gamma].  Channel i is measured at plant
index 2*i and its rate at 2*i + 1.  One derivative evaluation walks the
cascade in this order:

    1. reference trajectory at t
    2. front half of the x, y, z rigs: command filter, errors, lag and
       disturbance estimate
    3. virtual accelerations (minus the disturbance estimates)
    4. thrust magnitude + desired roll/pitch extraction
    5. front half of the roll, pitch, yaw rigs on (phi_des, theta_des, psi_des)
    6. torque laws and mixing -> rotor speeds -> residual propeller speed
    7. plant derivative with the injected disturbances
    8. one pass over the six rigs for the observer derivatives

The torque laws need the residual propeller speed, which depends on the
rotor speeds mixed from those same torques.  When the speed is pinned
(fixed_residual_speed) one torque-and-mix pass uses it.  Otherwise the loop
is closed with two passes: the first with zero residual speed, the second
with the speed the first pass mixed.  The gyroscopic terms are four orders
of magnitude below the rest of the law, so the fixed point is reached to
machine accuracy and the derivative stays a pure function of (t, state).

Augmented state layout (48 entries): plant states 0..11, then one rig per
channel in the order roll, pitch, yaw, x, y, z.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .attitude import (
    ATTITUDE_AXES,
    attitude_coupling,
    attitude_input_gain,
    attitude_torque,
    auxiliary_control,
    channel_errors,
)
from .disturbances import make_generator
from .errors import (
    AngleGuardError,
    DenominatorTooSmallError,
    NonFiniteError,
    SimulationError,
)
from .filters import command_filter_derivative, first_order_filter_derivative
from .observers import do_derivative, do_estimate, hgo_derivative
from .position import (
    acceleration_from_attitude,
    extract_thrust_and_attitude,
    position_virtual_control,
    reference_trajectory,
    waypoint_trajectory,
)
from .scenario import ANGLE_GUARD_MARGIN, CHANNELS, Scenario, scenario_digest, scenario_to_dict
from .vehicle import ControlInputs, mix_inputs_to_rotor_speeds, residual_speed, state_derivative

PLANT_DIM = 12
RIG_SIZE = 6
STATE_DIM = PLANT_DIM + RIG_SIZE * len(CHANNELS)

# The other two attitude channels whose rates couple into roll, pitch, yaw.
_CROSS = ((1, 2), (0, 2), (0, 1))

COLUMNS = (
    ("t",)
    + tuple(f"x{i}" for i in range(1, 13))
    + tuple(f"xhat{i}" for i in range(1, 13))
    + ("xr", "yr", "zr", "phi_des", "theta_des", "psi_des")
    + ("Up", "Uphi", "Utheta", "Upsi")
    + ("w1", "w2", "w3", "w4")
    + ("Ux", "Uy", "Uz")
    + ("d_phi", "d_theta", "d_psi", "d_x", "d_y", "d_z")
    + ("dhat_phi", "dhat_theta", "dhat_psi", "dhat_x", "dhat_y", "dhat_z")
    + ("e_x", "e_y", "e_z", "e_phi", "e_theta", "e_psi")
)

TRACE_SCHEMA_VERSION = 2


class ClosedLoop:
    """Derivative field of the full closed loop for one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.params = scenario.params
        self._psi_des = scenario.psi_des
        self._tsf = scenario.toggles.true_state_feedback
        self._position_do = scenario.toggles.position_do
        self._gains = tuple(
            (g.p, g.k, g.tau, g.m1, g.m2, g.beta1, g.beta2, g.eps, g.lam)
            for g in (scenario.gains[ch] for ch in CHANNELS)
        )
        self._att_gain = tuple(attitude_input_gain(ax, self.params) for ax in ATTITUDE_AXES)
        if scenario.trajectory["type"] == "helix":
            self._traj = reference_trajectory
        else:
            self._traj = waypoint_trajectory(scenario.trajectory["points"])
        self._gens = tuple(
            make_generator(
                scenario.disturbances[ch],
                np.random.SeedSequence((scenario.seed, idx)),
                scenario.duration,
            )
            for idx, ch in enumerate(CHANNELS)
        )
        self._angle_limit = math.pi / 2.0 - ANGLE_GUARD_MARGIN

    def initial_state(self) -> np.ndarray:
        """Augmented initial condition.

        Position command filters start on the trajectory; attitude command
        filters start at the measured angle, because their references are
        generated by the outer loop and seeding them there would inject a
        spurious initial error through sigma(0) = nu(0).  Observers start at
        the measured outputs with zero rate, and the disturbance observers
        start with a zero estimate.
        """
        a = np.zeros(STATE_DIM)
        a[:PLANT_DIM] = self.scenario.initial_state
        refs0 = self._traj(0.0)
        for i in range(len(CHANNELS)):
            base = PLANT_DIM + RIG_SIZE * i
            p, lam = self._gains[i][0], self._gains[i][8]
            measured = a[2 * i]
            ref = measured if i < 3 else refs0[i - 3]
            nu = auxiliary_control(p, measured - ref, 0.0)
            fb2 = a[2 * i + 1] if self._tsf else 0.0
            # The lag filter starts at its input, gamma at a zero estimate.
            a[base:base + RIG_SIZE] = (ref, 0.0, nu, measured, 0.0, -lam * fb2)
        return a

    def derivative(self, t: float, a) -> np.ndarray:
        return self._eval(t, a, collect=False)

    def signals(self, t: float, a):
        """(derivative, log row in COLUMNS order, mixer clamped) at (t, a)."""
        return self._eval(t, a, collect=True)

    def _front(self, i, st, ref):
        """Front half of rig i tracking ref: command filter, errors, lag, DO estimate.

        Returns ((dz1, dz2, dsigma), xi1, xi2, nu, sigma, dz2, dhat, rate),
        where rate is what the law and the DO read: the HGO estimate, or the
        true rate under oracle feedback.
        """
        base = PLANT_DIM + RIG_SIZE * i
        z1, z2, sg, xh1, xh2, gm = st[base:base + RIG_SIZE]
        p, _, tau, m1, m2, _, _, _, lam = self._gains[i]
        dz1, dz2 = command_filter_derivative(z1, z2, m1, m2, ref)
        fb1, fb2 = (st[2 * i], st[2 * i + 1]) if self._tsf else (xh1, xh2)
        xi1, xi2, _, nu = channel_errors(p, fb1, fb2, z1, z2, sg)
        dsg = first_order_filter_derivative(sg, nu, tau)
        return (dz1, dz2, dsg), xi1, xi2, nu, sg, dz2, do_estimate(gm, lam, fb2), fb2

    def _eval(self, t, a, collect):
        st = a.tolist() if isinstance(a, np.ndarray) else list(a)
        if abs(st[0]) >= self._angle_limit or abs(st[2]) >= self._angle_limit:
            raise AngleGuardError(t, st[0], st[2])

        params = self.params
        gains = self._gains
        xyz = self._traj(t)
        front = [None] * len(CHANNELS)
        virtuals = []
        for i in (3, 4, 5):
            front[i] = _, xi1, xi2, nu, sg, dz2, dhat, _ = self._front(i, st, xyz[i - 3])
            virtuals.append(position_virtual_control(
                gains[i][1], gains[i][2], xi1, xi2, nu, sg, dz2,
                dhat if self._position_do else 0.0))
        phi_des, theta_des, psi_des, up = extract_thrust_and_attitude(
            params, *virtuals, self._psi_des)
        angles = (phi_des, theta_des, psi_des)
        for i in (0, 1, 2):
            front[i] = self._front(i, st, angles[i])

        fb_rates = [front[i][7] for i in (0, 1, 2)]
        fixed = params.fixed_residual_speed
        omega_r = 0.0 if fixed is None else fixed
        for _ in range(1 if fixed is not None else 2):
            torques = []
            for i, axis in enumerate(ATTITUDE_AXES):
                _, xi1, xi2, nu, sg, dz2, dhat, _ = front[i]
                ja, jb = _CROSS[i]
                torques.append(attitude_torque(
                    axis, params, gains[i][1], gains[i][2], xi1, xi2, nu, sg,
                    fb_rates[ja], fb_rates[jb], omega_r, dz2, dhat))
            u = ControlInputs(up, *torques)
            mix = mix_inputs_to_rotor_speeds(params, u)
            omega_r = residual_speed(params, mix.speeds)

        d_now = tuple(g.value(t) for g in self._gens)
        plant = state_derivative(params, st[:PLANT_DIM], u, omega_r, d_now)

        # Per channel: (HGO nominal, HGO input term, DO coupling, DO input
        # gain, DO input).  High-gain observers always run on their own
        # estimates, so oracle feedback leaves them intact.
        rig_st = st[PLANT_DIM:]
        est_rates = [rig_st[RIG_SIZE * i + 4] for i in (0, 1, 2)]
        drive = []
        for i, axis in enumerate(ATTITUDE_AXES):
            ja, jb = _CROSS[i]
            g1 = self._att_gain[i]
            drive.append((
                attitude_coupling(axis, params, est_rates[ja], est_rates[jb], omega_r),
                g1 * torques[i],
                attitude_coupling(axis, params, fb_rates[ja], fb_rates[jb], omega_r),
                g1, torques[i]))
        f_pos = acceleration_from_attitude(params, rig_st[3], rig_st[RIG_SIZE + 3],
                                           rig_st[2 * RIG_SIZE + 3], up)
        # The translational rows are double integrators in the achieved
        # virtual input (thrust tilted by the actual attitude), so that is
        # what the disturbance observers must consume.  Feeding them the
        # commanded virtual control instead would cancel their damping term,
        # because the command already contains -dhat, and wind them up on the
        # attitude tracking lag.
        if self._tsf:
            f_do = acceleration_from_attitude(params, st[0], st[2], st[4], up)
        else:
            f_do = f_pos
        drive += [(f_pos[j], 0.0, 0.0, 1.0, f_do[j]) for j in (0, 1, 2)]

        rig_rows = []
        for i, (nominal, input_term, coupling, gain, u_in) in enumerate(drive):
            _, _, _, xh1, xh2, gm = rig_st[RIG_SIZE * i:RIG_SIZE * (i + 1)]
            _, _, _, _, _, b1, b2, eps, lam = gains[i]
            rig_rows += front[i][0]
            rig_rows += hgo_derivative(xh1, xh2, b1, b2, eps, st[2 * i], nominal, input_term)
            rig_rows.append(do_derivative(gm, lam, front[i][7], coupling, gain, u_in))
        deriv = np.empty(STATE_DIM)
        deriv[:PLANT_DIM] = plant
        deriv[PLANT_DIM:] = rig_rows
        if not collect:
            return deriv

        row = [t, *st[:PLANT_DIM]]
        for i in range(len(CHANNELS)):
            row += rig_st[RIG_SIZE * i + 3:RIG_SIZE * i + 5]
        row += [*xyz, *angles, *u, *mix.speeds, *virtuals, *d_now]
        row += [f[6] for f in front]
        row += [st[6 + 2 * j] - xyz[j] for j in (0, 1, 2)]
        row += [st[2 * j] - angles[j] for j in (0, 1, 2)]
        return deriv, row, mix.clamped


def rk4_step(f, a, t, dt, k1=None):
    """One classical fourth-order Runge-Kutta step for da/dt = f(t, a).

    Works for scalar or array states.  k1 may be passed in when f(t, a) is
    already known; the engine reuses the evaluation that produced the log
    row.
    """
    if k1 is None:
        k1 = f(t, a)
    half = 0.5 * dt
    k2 = f(t + half, a + half * k1)
    k3 = f(t + half, a + half * k2)
    k4 = f(t + dt, a + dt * k3)
    return a + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


@dataclass
class SimLog:
    """Full-rate trace; one row per major step, columns as in COLUMNS."""

    columns: Tuple[str, ...]
    data: np.ndarray
    dt: float

    def __len__(self):
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]


@dataclass
class Metrics:
    tracking_rmse: dict
    estimation_rmse: dict
    peak_abs_error: dict
    settle_time: dict
    window: Tuple[float, float]
    clamp_events: int = 0
    guard_events: int = 0
    completed: bool = True
    abort: Optional[dict] = None


class RunResult(NamedTuple):
    log: SimLog
    metrics: Metrics


# Tracking-error column and (estimate, truth) columns per channel.
_TRACK_COL = {"roll": "e_phi", "pitch": "e_theta", "yaw": "e_psi",
              "x": "e_x", "y": "e_y", "z": "e_z"}
_EST_COLS = {"roll": ("xhat1", "x1"), "pitch": ("xhat3", "x3"), "yaw": ("xhat5", "x5"),
             "x": ("xhat7", "x7"), "y": ("xhat9", "x9"), "z": ("xhat11", "x11")}

# A channel counts as settled once |error| stays below this fraction of its
# peak for the rest of the window.
SETTLE_FRACTION = 0.1


def compute_rmse(log: SimLog, window: Tuple[float, float]) -> Metrics:
    """Per-channel RMSE, peak, and settle time over [t0, t1]."""
    t0, t1 = window
    t = log.data[:, 0]
    mask = (t >= t0) & (t <= t1)
    if not mask.any():
        raise ValueError(f"window {window} selects no samples")
    tw = t[mask]
    tracking_rmse, estimation_rmse, peaks, settle = {}, {}, {}, {}
    for ch in CHANNELS:
        e = log.column(_TRACK_COL[ch])[mask]
        tracking_rmse[ch] = float(np.sqrt(np.mean(e * e)))
        ae = np.abs(e)
        peak = float(ae.max())
        peaks[ch] = peak
        above = np.nonzero(ae > SETTLE_FRACTION * peak)[0]
        if len(above) == 0:
            settle[ch] = float(tw[0])
        elif above[-1] == len(ae) - 1:
            settle[ch] = None
        else:
            settle[ch] = float(tw[above[-1] + 1])
        est_col, truth_col = _EST_COLS[ch]
        r = log.column(est_col)[mask] - log.column(truth_col)[mask]
        estimation_rmse[ch] = float(np.sqrt(np.mean(r * r)))
    return Metrics(tracking_rmse, estimation_rmse, peaks, settle, (float(t0), float(t1)))


def _empty_metrics() -> Metrics:
    nan = float("nan")
    return Metrics(
        {ch: nan for ch in CHANNELS}, {ch: nan for ch in CHANNELS},
        {ch: nan for ch in CHANNELS}, {ch: None for ch in CHANNELS},
        (nan, nan),
    )


def run_scenario(sc: Scenario) -> RunResult:
    """Integrate the scenario from 0 to duration at fixed dt.

    Deterministic given the scenario (seeds included).  A guard violation
    aborts with the partial log and the diagnostic recorded in the metrics;
    no exception escapes for runtime guards.
    """
    loop = ClosedLoop(sc)
    dt = sc.dt
    n = int(round(sc.duration / dt))
    data = np.empty((n + 1, len(COLUMNS)))
    a = loop.initial_state()
    clamp_events = 0
    abort = None
    rows = 0
    for i in range(n + 1):
        t = i * dt
        try:
            k1, data[i], clamped = loop.signals(t, a)
            rows = i + 1
            clamp_events += clamped
            if i == n:
                break
            a = rk4_step(loop.derivative, a, t, dt, k1=k1)
            if not np.isfinite(a).all():
                raise NonFiniteError(f"state became non-finite during the step at t={t:.6f} s")
        except (AngleGuardError, DenominatorTooSmallError, NonFiniteError) as exc:
            abort = {"reason": type(exc).__name__, "t": t, "detail": str(exc)}
            break
    log = SimLog(columns=COLUMNS, data=data[:rows].copy(), dt=dt)
    if rows:
        metrics = compute_rmse(log, (float(log.data[0, 0]), float(log.data[rows - 1, 0])))
    else:
        metrics = _empty_metrics()
    metrics.clamp_events = clamp_events
    metrics.guard_events = 0 if abort is None else 1
    metrics.completed = abort is None
    metrics.abort = abort
    return RunResult(log, metrics)


def write_trace(log: SimLog, path, decimation: int = 1):
    """CSV trace: header row plus every decimation-th sample, 9 significant digits."""
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            fh.write(",".join(log.columns) + "\n")
            for row in log.data[::decimation]:
                fh.write(",".join(f"{v:.9g}" for v in row) + "\n")
    except OSError as exc:
        raise SimulationError(f"cannot write trace to {path}: {exc}") from exc


def read_trace(path) -> SimLog:
    """Read a trace written by write_trace."""
    path = Path(path)
    try:
        with path.open() as fh:
            header = fh.readline().strip()
            body = [line for line in fh if line.strip()]
    except OSError as exc:
        raise SimulationError(f"cannot read trace from {path}: {exc}") from exc
    columns = tuple(header.split(","))
    if body:
        data = np.array([[float(v) for v in line.split(",")] for line in body])
    else:
        data = np.empty((0, len(columns)))
    dt = float(data[1, 0] - data[0, 0]) if data.shape[0] >= 2 else 0.0
    return SimLog(columns=columns, data=data, dt=dt)


def write_summary(metrics: Metrics, sc: Scenario, path) -> dict:
    """JSON run summary embedding the fully resolved scenario and its digest."""
    payload = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "seed": sc.seed,
        "scenario_digest": scenario_digest(sc),
        "scenario": scenario_to_dict(sc),
        "completed": metrics.completed,
        "abort": metrics.abort,
        "guard_events": metrics.guard_events,
        "clamp_events": metrics.clamp_events,
        "window": [metrics.window[0], metrics.window[1]],
        "tracking_rmse": metrics.tracking_rmse,
        "estimation_rmse": metrics.estimation_rmse,
        "peak_abs_error": metrics.peak_abs_error,
        "settle_time": metrics.settle_time,
    }
    path = Path(path)
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise SimulationError(f"cannot write summary to {path}: {exc}") from exc
    return payload
