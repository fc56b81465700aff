"""Layer spans for quadtrack, recorded from outside the package.

Each layer is a public function or method that quadtrack looks up by name
when it runs.  The tracer swaps that name for a wrapper that records a span
(layer, start, end, parent) and puts the original back afterwards, so
nothing under src/ changes.  The engine binds its leaves with
``from ... import``, so a leaf is wrapped in the namespace of the module
that calls it, not where it is defined.  ClosedLoop binds the trajectory
and the disturbance generators in __init__, so the tracer must be installed
before a ClosedLoop is built.

Spans stay in memory, in flat arrays, until the traced run ends.
"""

import importlib
import time
from array import array

import numpy as np

ATTITUDE_AXES = ("roll", "pitch", "yaw")

# (module[:class], attribute, layer).  Several names may feed one layer.
HOOKS = (
    ("quadtrack.cli", "load_scenario", "scenario.load"),
    ("quadtrack.cli", "scenario_from_dict", "scenario.load"),
    ("quadtrack.cli", "scenario_to_dict", "scenario.load"),
    ("quadtrack.cli", "run_scenario", "engine.step_loop"),
    ("quadtrack.cli", "write_trace", "engine.write_trace"),
    ("quadtrack.cli", "write_summary", "engine.write_summary"),
    ("quadtrack.engine", "write_trace", "engine.write_trace"),
    ("quadtrack.engine", "read_trace", "engine.read_trace"),
    ("quadtrack.engine", "compute_rmse", "engine.compute_rmse"),
    ("quadtrack.engine", "rk4_step", "engine.rk4"),
    ("quadtrack.engine:ClosedLoop", "__init__", "engine.init"),
    ("quadtrack.engine:ClosedLoop", "initial_state", "engine.init"),
    ("quadtrack.engine:ClosedLoop", "derivative", "engine.derivative"),
    ("quadtrack.engine:ClosedLoop", "signals", "engine.signals"),
    ("quadtrack.engine", "reference_trajectory", "position.reference"),
    ("quadtrack.engine", "position_virtual_control", "position.virtual_control"),
    ("quadtrack.engine", "extract_thrust_and_attitude", "position.extract"),
    ("quadtrack.engine", "acceleration_from_attitude", "position.accel"),
    ("quadtrack.engine", "attitude_torque", "attitude.torque"),
    ("quadtrack.engine", "attitude_coupling", "attitude.coupling"),
    ("quadtrack.attitude", "attitude_coupling", "attitude.coupling"),
    ("quadtrack.engine", "attitude_input_gain", "attitude.input_gain"),
    ("quadtrack.attitude", "attitude_input_gain", "attitude.input_gain"),
    ("quadtrack.engine", "channel_errors", "attitude.channel_errors"),
    ("quadtrack.engine", "state_derivative", "vehicle.plant"),
    ("quadtrack.engine", "mix_inputs_to_rotor_speeds", "vehicle.mix"),
    ("quadtrack.engine", "residual_speed", "vehicle.residual_speed"),
    ("quadtrack.engine", "command_filter_derivative", "filters.command_filter"),
    ("quadtrack.engine", "first_order_filter_derivative", "filters.lag"),
    ("quadtrack.engine", "hgo_derivative", "observers.hgo"),
    ("quadtrack.engine", "do_derivative", "observers.do"),
    ("quadtrack.engine", "do_estimate", "observers.do"),
    ("quadtrack.disturbances:_AnalyticGenerator", "value", "disturbances.value"),
    ("quadtrack.disturbances:SampledNoiseGenerator", "value", "disturbances.value"),
)

# The waypoint reference is a closure built per scenario; its factory is
# wrapped so that the closure it returns is traced as the reference layer.
WAYPOINT_FACTORY = ("quadtrack.engine", "waypoint_trajectory", "position.reference")

# Per-layer metrics and the layers each one sums.
SELF_US = {
    "engine.eval.self_us": ("engine.derivative", "engine.signals"),
    "engine.rk4.self_us": ("engine.rk4",),
    "engine.step_loop.self_us": ("engine.step_loop",),
    "position.reference.self_us": ("position.reference",),
    "position.virtual_control.self_us": ("position.virtual_control",),
    "position.extract.self_us": ("position.extract",),
    "position.accel.self_us": ("position.accel",),
    "attitude.torque.self_us": ("attitude.torque",),
    "attitude.coupling.self_us": ("attitude.coupling",),
    "attitude.channel_errors.self_us": ("attitude.channel_errors",),
    "vehicle.plant.self_us": ("vehicle.plant",),
    # Residual speed is part of the mixing step; single-pass mixing never calls it.
    "vehicle.mix.self_us": ("vehicle.mix", "vehicle.residual_speed"),
    "filters.command_filter.self_us": ("filters.command_filter",),
    "filters.lag.self_us": ("filters.lag",),
    "observers.hgo.self_us": ("observers.hgo",),
    "observers.do.self_us": ("observers.do",),
    "disturbances.value.self_us": ("disturbances.value",),
}
CALLS_PER_STEP = {
    "engine.eval.calls_per_step": ("engine.derivative", "engine.signals"),
    "attitude.torque.calls_per_step": ("attitude.torque",),
    "attitude.input_gain.calls_per_step": ("attitude.input_gain",),
    "vehicle.mix.calls_per_step": ("vehicle.mix",),
}
INCLUSIVE_S = {
    "scenario.load_s": ("scenario.load",),
    "engine.init_s": ("engine.init",),
    "engine.write_trace_s": ("engine.write_trace",),
    "engine.read_trace_s": ("engine.read_trace",),
    "engine.compute_rmse_s": ("engine.compute_rmse",),
    "engine.write_summary_s": ("engine.write_summary",),
}
CLI_SPAN = "cli.main"


def _resolve(target):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span store and the per-call observations behind the exact counts.

    Use as a context manager: entering wraps every hook, leaving restores
    the originals.  ``wrap`` also traces the benchmark's own calls, such as
    the whole traced operation or one CLI command.
    """

    def __init__(self):
        self.layers = []
        self._ids = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._saved = []
        self.missing = []
        self.clamps = 0
        self.useful_torques = 0
        self._last_torque = {}

    def layer_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None):
        lid = self.layer_id(name)
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(lid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # Observers: the mixer reports clamps on every call, so every RK4 stage
    # counts; a torque call is useful when its value reaches the plant.
    def _observe_mix(self, args, result):
        self.clamps += bool(result.clamped)

    def _observe_torque(self, args, result):
        self._last_torque[args[0]] = result

    def _observe_plant(self, args, result):
        applied = args[2][1:]
        last = self._last_torque
        self.useful_torques += sum(
            1 for axis, value in zip(ATTITUDE_AXES, applied) if axis in last and last[axis] == value
        )
        last.clear()

    def _patch(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        observers = {
            "vehicle.mix": self._observe_mix,
            "attitude.torque": self._observe_torque,
            "vehicle.plant": self._observe_plant,
        }
        for target, attr, name in HOOKS:
            obj = _resolve(target)
            if not hasattr(obj, attr):
                self.missing.append(f"{target}.{attr}")
                continue
            self._patch(obj, attr, self.wrap(name, getattr(obj, attr), observers.get(name)))
        target, attr, name = WAYPOINT_FACTORY
        obj = _resolve(target)
        if hasattr(obj, attr):
            factory = getattr(obj, attr)
            self._patch(obj, attr, lambda *a, **k: self.wrap(name, factory(*a, **k)))
        else:
            self.missing.append(f"{target}.{attr}")
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)
        return False

    def counts(self):
        """Exact counts: calls per layer, mixer clamps and useful torques."""
        calls = np.bincount(np.frombuffer(self.layer, dtype=np.int32), minlength=len(self.layers))
        out = {name: int(calls[i]) for i, name in enumerate(self.layers)}
        out["vehicle.mix.clamps"] = self.clamps
        out["attitude.torque.useful"] = self.useful_torques
        return out

    def save(self, path):
        """Write the spans as numpy arrays (times in ns)."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def wrapper_ns(calls=100_000, repeats=5):
    """What tracing adds to one call of an empty function [ns], median of ``repeats``."""
    def empty():
        return None

    samples = []
    for _ in range(repeats):
        traced = Tracer().wrap("calibration", empty)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(samples))


def layer_metrics(tr):
    """Per-layer metrics from the spans of one traced operation.

    A span's self time is its duration minus the part its child spans
    cover, so it includes the tracing cost of its direct children (about
    ``wrapper_ns`` each); the per-layer call counts say how many.  Per-step
    values divide by the number of RK4 steps.  Per-step call counts leave
    out the final logged evaluation of each run, which takes no step, so
    they read as exact integers.

    Returns (metrics, {layer: (calls per step, self us per step)}, sum of
    all self times in seconds).
    """
    ids = {name: i for i, name in enumerate(tr.layers)}
    lay = np.frombuffer(tr.layer, dtype=np.int32)
    par = np.frombuffer(tr.parent, dtype=np.int32)
    dur = (np.frombuffer(tr.end, dtype=np.int64) - np.frombuffer(tr.start, dtype=np.int64)).astype(float)
    n, nl = len(lay), len(tr.layers)
    nested = par >= 0
    self_ns = dur - np.bincount(par[nested], weights=dur[nested], minlength=n)
    self_by_layer = np.bincount(lay, weights=self_ns, minlength=nl)

    def select(names):
        return np.isin(lay, [ids[x] for x in names if x in ids])

    steps = max(int(np.count_nonzero(select(("engine.rk4",)))), 1)

    # Owner evaluation of each span: itself if it is one, else its nearest
    # evaluation ancestor, else -1.
    is_eval = select(("engine.derivative", "engine.signals"))
    owner = np.where(is_eval, np.arange(n), -1)
    cur = np.where(is_eval, -1, par)
    while True:
        todo = np.nonzero(cur >= 0)[0]
        if len(todo) == 0:
            break
        up = cur[todo]
        hit = is_eval[up]
        owner[todo[hit]] = up[hit]
        cur[todo] = np.where(hit, -1, par[up])
    # The last evaluation each run_scenario makes logs the final row only.
    final = np.zeros(n, dtype=bool)
    runs = np.nonzero(select(("engine.step_loop",)))[0]
    logged = np.nonzero(select(("engine.signals",)) & np.isin(par, runs))[0][::-1]
    _, last = np.unique(par[logged], return_index=True)
    final[logged[last]] = True
    in_step = (owner >= 0) & ~final[np.maximum(owner, 0)]

    out = {}
    for metric, names in SELF_US.items():
        out[metric] = float(sum(self_by_layer[ids[x]] for x in names if x in ids)) / steps / 1e3
    for metric, names in CALLS_PER_STEP.items():
        out[metric] = int(np.count_nonzero(select(names) & in_step)) / steps
    for metric, names in INCLUSIVE_S.items():
        mask = select(names)
        outer = mask & ~np.isin(par, np.nonzero(mask)[0])
        out[metric] = float(dur[outer].sum()) / 1e9
    deriv = dur[select(("engine.derivative",))]
    p50, p99 = np.percentile(deriv, [50, 99]) if len(deriv) else (0.0, 0.0)
    out["engine.derivative.p50_us"] = float(p50) / 1e3
    out["engine.derivative.p99_us"] = float(p99) / 1e3
    out["cli.overhead_s"] = float(self_ns[select((CLI_SPAN,))].sum()) / 1e9
    torque_calls = int(np.count_nonzero(select(("attitude.torque",))))
    out["attitude.torque.useful_ratio"] = tr.useful_torques / torque_calls if torque_calls else 0.0
    out["vehicle.mix.clamps"] = tr.clamps

    stepped = np.bincount(lay[in_step], minlength=nl)
    table = {name: (int(stepped[i]) / steps, float(self_by_layer[i]) / steps / 1e3)
             for i, name in enumerate(tr.layers) if stepped[i]}
    return out, table, float(self_ns.sum()) / 1e9
