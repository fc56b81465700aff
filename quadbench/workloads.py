"""The benchmark's workloads, run through quadtrack's public entry points.

mission     the stock scenario through ``quadtrack run``
montecarlo  a seed sweep through ``quadtrack sweep --jobs 1``
trace_io    full-rate trace write, read-back and RMSE on a fixed log

Both CLI commands are called in-process through ``cli.main``.  Every
operation is checked: summaries against reference.json, trace files by
reading them back.  ``measure`` repeats the workload's operation for the
given seconds and gives the untraced end-to-end figures; ``trace`` gives
the per-layer figures of a short, fixed traced operation.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import resource
import shutil
import time
from pathlib import Path

import numpy as np

from quadtrack import cli, engine
from quadtrack.engine import ClosedLoop
from quadtrack.scenario import CHANNELS, load_scenario, scenario_from_dict, scenario_to_dict

import tracer

HERE = Path(__file__).resolve().parent
TOLERANCE = json.loads((HERE / "design.json").read_text())["tolerance"]
REFERENCE_PATH = HERE / "reference.json"

MISSION_SCENARIO = {}  # the stock mission: every field at its default
# Simulated seconds of one mission, measured and traced alike.  On a shared
# machine the machine's speed drifts over seconds, and the fastest of a
# run's samples is steadier the shorter each sample is and the more of
# them the run holds: fastest 10 s missions (12 per run) spread by up to
# 0.27 between runs, 2 s missions by 0.17, 0.5 s missions (about 250 per
# run) by 0.04-0.08.  A traced mission keeps about 330 spans per step in memory.
MISSION_DURATION = 0.5
MONTECARLO_MEMBERS = 4
# Member seeds are drawn from range(MONTECARLO_TABLE); reference.json holds
# the recorded outputs of each.
MONTECARLO_TABLE = 128
MONTECARLO_SCENARIO = {
    "params": {"fixed_residual_speed": 0.0},
    "trajectory": {"type": "waypoints",
                   "points": [[0.0, 0.0, 0.0, 1.0], [2.0, 1.0, 0.0, 1.5], [4.0, 1.0, 1.0, 2.0]]},
    "disturbances": {ch: {"type": "noise", "kind": "gaussian", "sigma": 0.05, "hold": 0.05}
                     for ch in CHANNELS},
    "sim": {"duration": 0.125},
}
# Simulated seconds of trace_io's log: 1 001 full-rate rows, written and
# read back in about 50 ms, so that a run holds hundreds of cycles.
TRACE_IO_DURATION = 1.0
# trace_io's step_us comes from the log's run and from a short stock run
# after every cycle, so that its samples spread over the run.
TRACE_IO_PROBE_DURATION = 0.25
# Set-up repetitions after each operation, so that they spread over the run.
SETUP_REPS = 5


def reference():
    return json.loads(REFERENCE_PATH.read_text())


def digest(log) -> str:
    return hashlib.sha256(np.ascontiguousarray(log.data).tobytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Capture:
    """Times the run_scenario and write_trace calls the CLI makes, keeping each run."""

    def __enter__(self):
        self.runs, self.writes = [], []
        self._saved = run, write = cli.run_scenario, cli.write_trace

        def timed_run(sc):
            t0 = time.perf_counter()
            result = run(sc)
            self.runs.append((time.perf_counter() - t0, result))
            return result

        def timed_write(log, path, decimation=1):
            t0 = time.perf_counter()
            write(log, path, decimation=decimation)
            self.writes.append(time.perf_counter() - t0)

        cli.run_scenario, cli.write_trace = timed_run, timed_write
        return self

    def __exit__(self, *exc):
        cli.run_scenario, cli.write_trace = self._saved
        return False


class Op:
    """Timings, checks and artefacts of one user-visible operation."""

    def __init__(self):
        self.wall = 0.0
        self.members = 0
        # One entry per run_scenario, write_trace and read_trace call.
        self.step_us = []
        self.writes = []
        self.reads = []
        self.trace_bytes = 0
        self.problems = []
        self.bitwise = 0
        self.summaries = []
        self.digests = []
        self.io = None  # the I/O cycle that follows a traced trace_io probe


def _cli(argv, tr=None):
    main = cli.main if tr is None else tr.wrap(tracer.CLI_SPAN, cli.main)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue().strip()


def check_summary(summary, ref, what):
    """Problems with one run summary against its recorded reference."""
    if ref is None:
        return []
    problems = []
    if summary["completed"] is not ref["completed"]:
        problems.append(f"{what}: completed={summary['completed']} (abort {summary['abort']}), "
                        f"reference {ref['completed']}")
    if summary["clamp_events"] != ref["clamp_events"]:
        problems.append(f"{what}: clamp_events={summary['clamp_events']}, reference {ref['clamp_events']}")
    for key in ("tracking_rmse", "estimation_rmse"):
        for ch in CHANNELS:
            got, want = summary[key][ch], ref[key][ch]
            if not math.isclose(got, want, rel_tol=TOLERANCE["rmse_rtol"], abs_tol=TOLERANCE["rmse_atol"]):
                problems.append(f"{what}: {key}.{ch}={got!r}, reference {want!r}")
    return problems


def read_back(path, log, decimation, what):
    """Read a written trace back; (seconds, problems) against the run's log."""
    t0 = time.perf_counter()
    back = engine.read_trace(path)
    seconds = time.perf_counter() - t0
    want = log.data[::decimation]
    same = (back.columns == tuple(log.columns) and back.data.shape == want.shape
            and np.allclose(back.data, want, rtol=TOLERANCE["readback_rtol"], atol=0.0))
    return seconds, [] if same else [f"{what}: {path.name} read back differs from the run's log"]


def _collect(op, cap, summaries, outs, refs, what):
    """Fold the runs the CLI made into op, checking each one."""
    if len(cap.runs) != len(outs):
        op.problems.append(f"{what}: expected {len(outs)} runs, the CLI made {len(cap.runs)}")
        return
    op.writes = cap.writes
    for (run_wall, result), summary, out, ref in zip(cap.runs, summaries, outs, refs):
        label = f"{what} sim.seed={summary['seed']}"
        op.step_us.append(run_wall / (len(result.log) - 1) * 1e6)
        op.members += 1
        op.problems += check_summary(summary, ref, label)
        trace_path = out / "trace.csv"
        op.trace_bytes += trace_path.stat().st_size
        read_s, problems = read_back(trace_path, result.log, summary["scenario"]["sim"]["decimation"], label)
        op.reads.append(read_s)
        op.problems += problems
        op.digests.append(digest(result.log))
        op.bitwise += ref is not None and op.digests[-1] == ref["trace_sha256"]
        op.summaries.append(summary)


def run_command(work, scenario_path, ref, extra=(), tr=None):
    """``quadtrack run`` on one scenario file, then its checks."""
    op, out = Op(), work / "run"
    shutil.rmtree(out, ignore_errors=True)
    with Capture() as cap:
        t0 = time.perf_counter()
        code, text = _cli(["run", "--scenario", scenario_path, "--out", out, *extra], tr)
        op.wall = time.perf_counter() - t0
    if code != 0:
        op.problems.append(f"quadtrack run exited {code}: {text}")
        return op
    summary = json.loads((out / "summary.json").read_text())
    _collect(op, cap, [summary], [out], [ref], "mission")
    return op


def sweep_command(work, base_path, seeds, table, tr=None):
    """``quadtrack sweep`` over sim.seed, then its checks."""
    op, out = Op(), work / "sweep"
    vary = "sim.seed=" + ",".join(str(s) for s in seeds)
    shutil.rmtree(out, ignore_errors=True)
    with Capture() as cap:
        t0 = time.perf_counter()
        code, text = _cli(["sweep", "--scenario", base_path, "--vary", vary, "--out", out,
                           "--jobs", "1"], tr)
        op.wall = time.perf_counter() - t0
    if code != 0:
        op.problems.append(f"quadtrack sweep exited {code}: {text}")
        return op
    outs = [Path(entry["out"]) for entry in json.loads((out / "sweep.json").read_text())["runs"]]
    summaries = [json.loads((o / "summary.json").read_text()) for o in outs]
    refs = [None if table is None else table[str(s)] for s in seeds]
    _collect(op, cap, summaries, outs, refs, "member")
    return op


def io_cycle(work, log):
    """Full-rate write, read-back and RMSE of one log (the timed trace_io operation)."""
    op, path = Op(), work / "full.csv"
    t0 = time.perf_counter()
    engine.write_trace(log, path, decimation=1)
    t1 = time.perf_counter()
    back = engine.read_trace(path)
    t2 = time.perf_counter()
    metrics = engine.compute_rmse(back, (float(back.data[0, 0]), float(back.data[-1, 0])))
    op.wall = time.perf_counter() - t0
    op.writes, op.reads = [t1 - t0], [t2 - t1]
    op.trace_bytes = path.stat().st_size
    op.back, op.rmse = back, metrics.tracking_rmse
    return op


def verify_io(work, log, log_metrics, op, verified):
    """A second write of the read-back log must match the first byte for byte.

    The first cycle checked stores the file's digest and RMSE in ``verified``;
    later cycles write the same log, so they only need to match those.
    """
    written = hashlib.sha256((work / "full.csv").read_bytes()).hexdigest()
    if verified:
        if (written, op.rmse) != (verified["sha256"], verified["rmse"]):
            op.problems.append("trace_io: a full-rate write or its read-back differs from the first cycle's")
        op.back = None
        return
    again = work / "again.csv"
    engine.write_trace(op.back, again, decimation=1)
    if hashlib.sha256(again.read_bytes()).hexdigest() != written:
        op.problems.append("trace_io: second write of the read-back log is not byte-identical")
    if not np.allclose(op.back.data, log.data, rtol=TOLERANCE["readback_rtol"], atol=0.0):
        op.problems.append("trace_io: read-back log differs from the written log")
    for ch in CHANNELS:
        got, want = op.rmse[ch], log_metrics.tracking_rmse[ch]
        if not math.isclose(got, want, rel_tol=TOLERANCE["io_rmse_rtol"], abs_tol=TOLERANCE["rmse_atol"]):
            op.problems.append(f"trace_io: tracking_rmse.{ch} of the read-back log {got!r}, log {want!r}")
    if not op.problems:
        verified.update(sha256=written, rmse=op.rmse)
    op.back = None


def member_seeds(seed, sweep, count):
    return [(seed * 7919 + sweep * count + j) % MONTECARLO_TABLE for j in range(count)]


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return path


def _time_setup(build, samples):
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        build()
        samples.append(time.perf_counter() - t0)


def _repeat(seconds, once, build, setup_samples):
    """Run ``once`` at least one time, and again while the next run fits in ``seconds``.

    Set-up is timed after every operation, into ``setup_samples``.
    """
    results, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        op = once(len(results))
        # Only record.py needs each run's summary and log digest; dropping them
        # keeps peak_rss_mb from growing with the number of operations in a run.
        op.summaries, op.digests = [], []
        results.append(op)
        _time_setup(build, setup_samples)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


class Setup:
    """A workload's inputs, made from the seed before anything is timed."""

    def __init__(self, workload, seed, work):
        self.seed = seed
        self.problems = []
        self.ref = reference()
        if workload == "mission":
            # The stock mission has no free input; the seed changes nothing.
            self.path = write_json(work / "mission.json", MISSION_SCENARIO)
            self.build = lambda: ClosedLoop(load_scenario(self.path)).initial_state()
        elif workload == "montecarlo":
            self.path = write_json(work / "montecarlo.json", MONTECARLO_SCENARIO)
            base = scenario_to_dict(load_scenario(self.path))
            members = []
            for s in member_seeds(seed, 0, MONTECARLO_MEMBERS):
                d = copy.deepcopy(base)
                d["sim"]["seed"] = s
                members.append(d)

            def build():
                load_scenario(self.path)
                for d in members:
                    ClosedLoop(scenario_from_dict(d)).initial_state()

            self.build = build
        elif workload == "trace_io":
            self.path = write_json(work / "trace_io.json",
                                   {"sim": {"duration": TRACE_IO_DURATION, "seed": seed}})
            self.build = lambda: ClosedLoop(load_scenario(self.path)).initial_state()
            self.probe = write_json(work / "probe.json",
                                    {"sim": {"duration": TRACE_IO_PROBE_DURATION, "seed": seed}})
            self.step_us = []
            self.log, self.log_metrics = self.timed_run(self.path)
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def timed_run(self, path):
        """run_scenario on a scenario file, adding its cost per step to step_us."""
        t0 = time.perf_counter()
        log, metrics = engine.run_scenario(load_scenario(path))
        self.step_us.append((time.perf_counter() - t0) / (len(log) - 1) * 1e6)
        if not metrics.completed:
            self.problems.append(f"trace_io: a stock run aborted: {metrics.abort}")
        return log, metrics


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.info = {}

    def add(self, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


def measure(workload, seed, seconds, work, tally):
    """Untraced end-to-end metrics by name."""
    setup = Setup(workload, seed, work)
    setup_samples = []
    if workload == "mission":
        ref = setup.ref["mission"]["stock"]
        once = lambda i: run_command(work, setup.path, ref, ("--duration", MISSION_DURATION))  # noqa: E731
    elif workload == "montecarlo":
        table = setup.ref["montecarlo"]
        once = lambda i: sweep_command(  # noqa: E731
            work, setup.path, member_seeds(seed, i, MONTECARLO_MEMBERS), table)
    else:
        verified = {}

        def once(i):
            op = io_cycle(work, setup.log)
            verify_io(work, setup.log, setup.log_metrics, op, verified)
            setup.timed_run(setup.probe)
            return op
    ops = _repeat(seconds, once, setup.build, setup_samples)
    for op in ops:
        tally.add(op.problems)
    tally.problems += setup.problems
    timings = {
        "wall_s": [op.wall for op in ops],
        "setup_s": setup_samples,
        "step_us": setup.step_us if workload == "trace_io" else [x for op in ops for x in op.step_us],
        "trace_write_s": [x for op in ops for x in op.writes],
        "trace_read_s": [x for op in ops for x in op.reads],
    }
    if workload != "trace_io":
        member_s = [op.wall / op.members for op in ops if op.members]
        tally.info["member_s"] = (min(member_s, default=math.nan), "s")
        tally.info["bitwise_identical_logs"] = (
            f"{sum(op.bitwise for op in ops)} of {sum(op.members for op in ops)}", "")
    tally.info["samples"] = (json.dumps({k: v for k, v in timings.items() if k != "setup_s"}), "")
    # Each timing is the fastest of the run's samples: the work is the same
    # each time, and the machine only ever adds time.
    metrics = {name: min(values, default=math.nan) for name, values in timings.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def _traced_op(workload, setup, work, tr=None):
    """The fixed operation a traced run measures; ``_finish`` checks trace_io's I/O cycle."""
    if workload == "montecarlo":
        seeds = [setup.seed % MONTECARLO_TABLE]
        return sweep_command(work, setup.path, seeds, setup.ref["montecarlo"], tr)
    stock = write_json(work / "stock.json", MISSION_SCENARIO)
    op = run_command(work, stock, setup.ref["mission"]["stock"], ("--duration", MISSION_DURATION), tr)
    if workload == "trace_io":
        # The trace_io operation bypasses the engine; the short stock run
        # above supplies its engine-layer figures.
        op.io = io_cycle(work, setup.log)
        op.trace_bytes += op.io.trace_bytes
    return op


def _finish(workload, setup, work, op):
    if workload == "trace_io":
        verify_io(work, setup.log, setup.log_metrics, op.io, {})
        op.problems += op.io.problems
    return op


def trace(workload, seed, work, tally, spans_path):
    """Per-layer metrics by name, from two traced passes of the same operation."""
    setup = Setup(workload, seed, work)
    tally.problems += setup.problems
    wrapper_ns = tracer.wrapper_ns()
    t0 = time.perf_counter()
    untraced = _traced_op(workload, setup, work)
    untraced_wall = time.perf_counter() - t0
    tally.add(_finish(workload, setup, work, untraced).problems)
    passes = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr:
            t0 = time.perf_counter()
            op = tr.wrap("bench.operation", _traced_op)(workload, setup, work, tr)
            wall = time.perf_counter() - t0
        tally.add(_finish(workload, setup, work, op).problems)
        if tr.missing:
            tally.problems.append("tracer found no " + ", ".join(tr.missing))
        metrics, table, self_sum = tracer.layer_metrics(tr)
        if abs(self_sum - wall) > TOLERANCE["self_time_sum_frac"] * wall:
            tally.problems.append(f"layer self times sum to {self_sum:.6f} s, traced wall {wall:.6f} s")
        counts = tr.counts()
        counts["engine.trace_bytes"] = op.trace_bytes
        passes.append((wall, metrics, counts))
    (wall_a, first, counts_a), (wall_b, second, counts_b) = passes
    if counts_a != counts_b:
        diff = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
        tally.problems.append(f"exact counts differ between two traced passes: {diff}")
    tr.save(spans_path)
    out = {name: first[name] if name in EXACT else (first[name] + second[name]) / 2.0 for name in first}
    out["engine.trace_bytes"] = counts_a["engine.trace_bytes"]
    out["trace.wrapper_ns"] = wrapper_ns
    traced_wall = (wall_a + wall_b) / 2.0
    out["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    for name, (calls, self_us) in table.items():
        tally.info[f"layer {name}"] = (f"{calls:g} calls/step, self {self_us:.3f}", "us/step")
    tally.info["traced_wall_s"] = (traced_wall, "s")
    tally.info["untraced_wall_s"] = (untraced_wall, "s")
    return out


# Metrics read from exact counts; they must repeat between traced passes.
EXACT = set(tracer.CALLS_PER_STEP) | {"attitude.torque.useful_ratio", "vehicle.mix.clamps"}
