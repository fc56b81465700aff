"""Closed-loop assembly, fixed-step integration, metrics, and trace output.

All six channels (roll, pitch, yaw, x, y, z) run the law of channel.py, one
rig each.  Channel i is measured at plant index 2*i and its rate at 2*i + 1.
One derivative evaluation walks the cascade in this order:

    1. reference trajectory at t
    2. front half of the x, y, z rigs (command filter to disturbance estimate)
    3. virtual accelerations (minus the disturbance estimates)
    4. thrust magnitude + desired roll/pitch extraction
    5. front half of the roll, pitch, yaw rigs on (phi_des, theta_des, psi_des)
    6. torque laws and mixing -> rotor speeds -> residual propeller speed
    7. plant derivative with the injected disturbances
    8. one pass over the six rigs for the observer derivatives: HGOs read the
       model at their estimates, DOs at feedback (evaluated twice only under oracle)

The torque laws need the residual propeller speed, which depends on the
rotor speeds mixed from those same torques.  When the speed is pinned
(fixed_residual_speed) one torque-and-mix pass uses it.  Otherwise the loop
is closed with two passes: the first with zero residual speed, the second
with the speed the first pass mixed.  Two passes stop short of the fixed
point: over the first 10 s of the stock mission a third pass would move the
roll torque by up to 2.1e-9 (1.0e-6 relative), the pitch torque by up to
4.6e-8 (1.2e-5 relative) and the residual speed by 7.9e-8 rad/s (yaw has no
gyroscopic term).  The derivative stays a pure function of (t, state).

Augmented state layout (48 entries): plant states 0..11, then one rig per
channel in the order roll, pitch, yaw, x, y, z.

ClosedLoop builds its per-rig constant tables once: the front half's (rig
base, output index, p, tau, m1, m2, lam), the law's gain k and the
observers' (rig base, output index, beta1, beta2, eps, lam).  An evaluation
is then one flat pass that keeps each rig's front-half results in locals.
The leaf calls stay fixed all the same: every leaf is called by name from
this module, four evaluations per RK4 step, three attitude_torque calls
(axis name first) and one mixing call per pass, and the applied torques
reach state_derivative as inputs[1:4].  The benchmark's tracer
(quadbench/tracer.py) wraps those names here and counts those calls, so
inlining a leaf or dropping the second mixing pass would break its counts.
It wraps the generators' value methods and the waypoint factory before a
ClosedLoop is built, which is why __init__ may bind them.
"""

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .attitude import attitude_torque
from .channel import (
    channel_errors,
    command_filter_derivative,
    do_derivative,
    do_estimate,
    first_order_filter_derivative,
    hgo_derivative,
    position_virtual_control,
)
from .disturbances import make_generator
from .errors import (
    AngleGuardError,
    DenominatorTooSmallError,
    NonFiniteError,
    SimulationError,
    require_finite,
)
from .scenario import (
    CHANNELS,
    Scenario,
    reference_trajectory,
    scenario_digest,
    scenario_to_dict,
    waypoint_trajectory,
)
from .vehicle import (
    ANGLE_LIMIT,
    ControlInputs,
    acceleration_from_attitude,
    attitude_coupling,
    attitude_input_gain,
    extract_thrust_and_attitude,
    mix_inputs_to_rotor_speeds,
    residual_speed,
    state_derivative,
)

PLANT_DIM = 12
RIG_SIZE = 6
STATE_DIM = PLANT_DIM + RIG_SIZE * len(CHANNELS)

# Channel symbols in CHANNELS order; channel i's estimate and truth are xhat{2i+1} and x{2i+1}.
_SYMBOLS = ("phi", "theta", "psi", "x", "y", "z")

COLUMNS = (
    ("t",)
    + tuple(f"x{i}" for i in range(1, 13))
    + tuple(f"xhat{i}" for i in range(1, 13))
    + ("xr", "yr", "zr", "phi_des", "theta_des", "psi_des")
    + ("Up", "Uphi", "Utheta", "Upsi")
    + ("w1", "w2", "w3", "w4")
    + ("Ux", "Uy", "Uz")
    + tuple(f"d_{s}" for s in _SYMBOLS)
    + tuple(f"dhat_{s}" for s in _SYMBOLS)
    + tuple(f"e_{s}" for s in _SYMBOLS[3:] + _SYMBOLS[:3])
)

TRACE_SCHEMA_VERSION = 5
_TRACE_BLOCK_ROWS = 64  # rows per % operation in write_trace: about 50 kB of text


class ClosedLoop:
    """Derivative field of the full closed loop for one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.clamp_events = 0  # evaluations (all RK4 stages) whose applied mix clamped
        self.params = scenario.params
        self._psi_des = scenario.psi_des
        self._tsf = scenario.toggles.true_state_feedback
        self._position_do = scenario.toggles.position_do
        # Per-rig constant tables in CHANNELS order (see the module docstring).
        fronts, laws, observers = [], [], []
        for i, ch in enumerate(CHANNELS):
            g = scenario.gains[ch]
            base = PLANT_DIM + RIG_SIZE * i
            fronts.append((base, 2 * i, g.p, g.tau, g.m1, g.m2, g.lam))
            laws.append(g.k)
            observers.append((base, 2 * i, g.beta1, g.beta2, g.eps, g.lam))
        self._fronts, self._laws, self._observers = tuple(fronts), tuple(laws), tuple(observers)
        self._att_gain = tuple(attitude_input_gain(ax, self.params) for ax in CHANNELS[:3])
        if scenario.trajectory["type"] == "helix":
            self._traj = reference_trajectory
        else:
            self._traj = waypoint_trajectory(scenario.trajectory["points"])
        self._values = tuple(
            make_generator(
                scenario.disturbances[ch],
                np.random.SeedSequence((scenario.seed, idx)),
                scenario.duration,
            ).value
            for idx, ch in enumerate(CHANNELS)
        )

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
        for i, (base, out, p, _, _, _, lam) in enumerate(self._fronts):
            measured = a[out]
            ref = measured if i < 3 else refs0[i - 3]
            _, _, nu = channel_errors(p, measured, 0.0, ref, 0.0, 0.0)
            fb2 = a[out + 1] if self._tsf else 0.0
            # The lag filter starts at its input, gamma at a zero estimate.
            a[base:base + RIG_SIZE] = (ref, 0.0, nu, measured, 0.0, -lam * fb2)
        return a

    def derivative(self, t: float, a) -> np.ndarray:
        return self._eval(t, a, collect=False)

    def signals(self, t: float, a):
        """(derivative, log row in COLUMNS order) at (t, a)."""
        return self._eval(t, a, collect=True)

    def _front(self, rig, st, ref):
        """Front half of one rig tracking ref: command filter, errors, lag, DO estimate.

        rig is the rig's row of front-half constants.  Returns the flat tuple

            0 dz1   1 dz2   2 dsigma   3 xi1   4 xi2   5 dhat   6 rate

        where rate is what the law and the DO read (the HGO estimate, or the
        true rate under oracle feedback); the law also reads dsigma.
        """
        base, out, p, tau, m1, m2, lam = rig
        z1, z2, sg, fb1, fb2, gm = st[base:base + RIG_SIZE]
        dz1, dz2 = command_filter_derivative(z1, z2, m1, m2, ref)
        if self._tsf:
            fb1, fb2 = st[out], st[out + 1]
        xi1, xi2, nu = channel_errors(p, fb1, fb2, z1, z2, sg)
        dsg = first_order_filter_derivative(sg, nu, tau)
        return dz1, dz2, dsg, xi1, xi2, do_estimate(gm, lam, fb2), fb2

    def _model(self, outputs, rates, omega_r, up):
        """Rate-row model terms, inputs left out, at outputs and rates in CHANNELS order."""
        params = self.params
        return (attitude_coupling("roll", params, rates, omega_r),
                attitude_coupling("pitch", params, rates, omega_r),
                attitude_coupling("yaw", params, rates, omega_r),
                *acceleration_from_attitude(params, outputs[0], outputs[1], outputs[2], up))

    def _eval(self, t, a, collect):
        st = a.tolist() if isinstance(a, np.ndarray) else list(a)
        if abs(st[0]) >= ANGLE_LIMIT or abs(st[2]) >= ANGLE_LIMIT:
            raise AngleGuardError(t, st[0], st[2])
        # Checked whole before any leaf reads it: under oracle feedback no
        # leaf check stands between a non-finite estimate and math.sin.
        require_finite(st, "augmented state")

        # Rig i of CHANNELS (roll, pitch, yaw, x, y, z) is f<i> below.
        params = self.params
        front = self._front
        rig0, rig1, rig2, rig3, rig4, rig5 = self._fronts
        k0, k1, k2, k3, k4, k5 = self._laws
        xyz = self._traj(t)
        f3 = front(rig3, st, xyz[0])
        f4 = front(rig4, st, xyz[1])
        f5 = front(rig5, st, xyz[2])
        do_on = self._position_do
        virtuals = (
            position_virtual_control(k3, f3[3], f3[4], f3[2], f3[1], f3[5] if do_on else 0.0),
            position_virtual_control(k4, f4[3], f4[4], f4[2], f4[1], f4[5] if do_on else 0.0),
            position_virtual_control(k5, f5[3], f5[4], f5[2], f5[1], f5[5] if do_on else 0.0),
        )
        phi_des, theta_des, psi_des, up = extract_thrust_and_attitude(
            params, *virtuals, self._psi_des)
        f0 = front(rig0, st, phi_des)
        f1 = front(rig1, st, theta_des)
        f2 = front(rig2, st, psi_des)

        rates = (f0[6], f1[6], f2[6])
        fixed = params.fixed_residual_speed
        omega_r = 0.0 if fixed is None else fixed
        for _ in range(1 if fixed is not None else 2):
            u = ControlInputs(
                up,
                attitude_torque("roll", params, k0, f0[3], f0[4], f0[2], rates, omega_r,
                                f0[1], f0[5]),
                attitude_torque("pitch", params, k1, f1[3], f1[4], f1[2], rates, omega_r,
                                f1[1], f1[5]),
                attitude_torque("yaw", params, k2, f2[3], f2[4], f2[2], rates, omega_r,
                                f2[1], f2[5]),
            )
            mix = mix_inputs_to_rotor_speeds(params, u)
            if fixed is None:
                omega_r = residual_speed(mix.speeds)

        v0, v1, v2, v3, v4, v5 = self._values
        d_now = (v0(t), v1(t), v2(t), v3(t), v4(t), v5(t))
        plant = state_derivative(params, st[:PLANT_DIM], u, omega_r, d_now)
        self.clamp_events += mix.clamped

        # The translational rows are double integrators in the achieved
        # virtual input (thrust tilted by the actual attitude), so that is
        # what the disturbance observers must consume.  Feeding them the
        # commanded virtual control instead would cancel their damping term,
        # because the command already contains -dhat, and wind them up on the
        # attitude tracking lag.
        nominal = self._model(st[PLANT_DIM + 3::RIG_SIZE], st[PLANT_DIM + 4::RIG_SIZE],
                              omega_r, up)
        feedback = (self._model(st[0:PLANT_DIM:2], st[1:PLANT_DIM:2], omega_r, up)
                    if self._tsf else nominal)
        _, u0, u1, u2 = u
        g0, g1, g2 = self._att_gain
        input_terms = (g0 * u0, g1 * u1, g2 * u2, 0.0, 0.0, 0.0)

        rows = plant.tolist()
        for (base, out, b1, b2, eps, lam), f, nom, fb, inp in zip(
                self._observers, (f0, f1, f2, f3, f4, f5), nominal, feedback, input_terms):
            dxh1, dxh2 = hgo_derivative(st[base + 3], st[base + 4], b1, b2, eps, st[out],
                                        nom, inp)
            rows += (f[0], f[1], f[2], dxh1, dxh2,
                     do_derivative(st[base + 5], lam, f[6], fb, inp))
        deriv = np.array(rows)
        if not collect:
            return deriv

        row = [t, *st[:PLANT_DIM]]
        for base, *_ in self._observers:
            row += (st[base + 3], st[base + 4])
        row += [*xyz, phi_des, theta_des, psi_des, *u, *mix.speeds, *virtuals, *d_now,
                f0[5], f1[5], f2[5], f3[5], f4[5], f5[5]]
        row += [st[6] - xyz[0], st[8] - xyz[1], st[10] - xyz[2],
                st[0] - phi_des, st[2] - theta_des, st[4] - psi_des]
        return deriv, row


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
    window: Optional[Tuple[float, float]]  # None when no row was logged
    clamp_events: int = 0  # derivative evaluations whose applied mix clamped
    completed: bool = True
    abort: Optional[dict] = None


class RunResult(NamedTuple):
    log: SimLog
    metrics: Metrics


# A channel counts as settled once |error| stays below this fraction of its
# peak for the rest of the window.
SETTLE_FRACTION = 0.1


def compute_rmse(log: SimLog, window: Tuple[float, float]) -> Metrics:
    """Per-channel RMSE, peak, and settle time over [t0, t1].

    A settle time is None when the channel never settles, or when its peak is nan or inf.
    """
    t0, t1 = window
    t = log.data[:, 0]
    mask = (t >= t0) & (t <= t1)
    if not mask.any():
        raise ValueError(f"window {window} selects no samples")
    tw = t[mask]
    tracking_rmse, estimation_rmse, peaks, settle = {}, {}, {}, {}
    for i, (ch, sym) in enumerate(zip(CHANNELS, _SYMBOLS)):
        e = log.column(f"e_{sym}")[mask]
        tracking_rmse[ch] = float(np.sqrt(np.mean(e * e)))
        ae = np.abs(e)
        peak = float(ae.max())
        peaks[ch] = peak
        above = np.nonzero(ae > SETTLE_FRACTION * peak)[0]
        if len(above) == 0 and np.isfinite(peak):
            settle[ch] = float(tw[0])
        elif len(above) == 0 or above[-1] == len(ae) - 1:
            settle[ch] = None
        else:
            settle[ch] = float(tw[above[-1] + 1])
        r = log.column(f"xhat{2 * i + 1}")[mask] - log.column(f"x{2 * i + 1}")[mask]
        estimation_rmse[ch] = float(np.sqrt(np.mean(r * r)))
    return Metrics(tracking_rmse, estimation_rmse, peaks, settle, (float(t0), float(t1)))


@np.errstate(over="ignore", invalid="ignore")
def run_scenario(sc: Scenario) -> RunResult:
    """Integrate the scenario from 0 to duration at fixed dt.

    Deterministic given the scenario (seeds included).  A guard violation
    aborts with the partial log and the diagnostic recorded in the metrics;
    no exception escapes for runtime guards, and no numpy overflow or
    invalid-value warning precedes the abort.
    """
    loop = ClosedLoop(sc)
    dt = sc.dt
    n = int(round(sc.duration / dt))
    try:
        data = np.empty((n + 1, len(COLUMNS)))
    except ValueError as exc:  # a size numpy cannot address: out of memory, as for one it can
        raise MemoryError(str(exc)) from exc
    a = loop.initial_state()
    abort = None
    rows = 0
    for i in range(n + 1):
        t = i * dt
        try:
            k1, data[i] = loop.signals(t, a)
            rows = i + 1
            if i == n:
                break
            a = rk4_step(loop.derivative, a, t, dt, k1=k1)
            if not np.isfinite(a).all():
                raise NonFiniteError(f"state became non-finite during the step at t={t:.6f} s")
        except (AngleGuardError, DenominatorTooSmallError, NonFiniteError) as exc:
            abort = {"reason": type(exc).__name__, "t": t, "detail": str(exc)}
            break
    log = SimLog(columns=COLUMNS, data=data[:rows])
    if rows:
        metrics = compute_rmse(log, (float(log.data[0, 0]), float(log.data[rows - 1, 0])))
    else:
        metrics = Metrics(*(dict.fromkeys(CHANNELS) for _ in range(4)), None)
    metrics.clamp_events = loop.clamp_events
    metrics.completed = abort is None
    metrics.abort = abort
    return RunResult(log, metrics)


def write_trace(log: SimLog, path, decimation: int = 1):
    """CSV trace: a line of column names, then every decimation-th row as comma-separated %.9g.

    One % operation formats each block of rows; the bytes are np.savetxt's with fmt="%.9g".
    """
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    rows = log.data[::decimation]
    line = ",".join(["%.9g"] * rows.shape[1]) + "\n"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(log.columns) + "\n")
            for start in range(0, len(rows), _TRACE_BLOCK_ROWS):
                block = rows[start:start + _TRACE_BLOCK_ROWS]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
    except OSError as exc:
        raise SimulationError(f"cannot write trace to {path}: {exc}") from exc


def read_trace(path) -> SimLog:
    """Read a write_trace CSV; a header-only trace reads as a (0, len(columns)) array.

    A file that is not UTF-8, a missing header, or a body that is not one value per column
    per line raises SimulationError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            body = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SimulationError(f"cannot read trace from {path}: {exc}") from exc
    if not header:
        raise SimulationError(f"trace {path} has no header line")
    columns = tuple(header.split(","))
    if not body:
        return SimLog(columns=columns, data=np.empty((0, len(columns))))
    try:
        # loadtxt skips blank lines, warning if that leaves nothing; the shape check rejects them.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(body, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SimulationError(f"cannot parse trace {path}: {exc}") from exc
    if data.shape != (len(body), len(columns)):
        raise SimulationError(f"trace {path}: {len(body)} lines of {len(columns)} columns "
                              f"read as a {data.shape} table")
    return SimLog(columns=columns, data=data)


def write_summary(metrics: Metrics, sc: Scenario, path) -> dict:
    """JSON summary: schema_version, seed, scenario_digest, scenario, then each Metrics field.

    A NaN or infinite figure is written, and returned, as null: the file is standard JSON.
    """
    payload = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "seed": sc.seed,
        "scenario_digest": scenario_digest(sc),
        "scenario": scenario_to_dict(sc),
        **json.loads(json.dumps(asdict(metrics)), parse_constant=lambda name: None),
    }
    try:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise SimulationError(f"cannot write summary to {path}: {exc}") from exc
    return payload
