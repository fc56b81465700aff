"""Command-line entry points.

    quadtrack run   --scenario mission.json --out results/
    quadtrack sweep --scenario mission.json --vary gains.roll.k=100,120,140 \
                    --out sweeps/ [--jobs 4]

Exit codes: 0 success, 2 scenario validation failure or bad arguments, 3 runtime
guard abort, output failure or a run out of memory (a sweep still runs its other
members and writes sweep.json, recording the failed member with its error).  Sweep
values that would share a member directory, such as --vary sim.seed=1,1,
are bad arguments: the sweep exits 2 before any member runs.
"""

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

from .engine import run_scenario, write_summary, write_trace
from .errors import ScenarioError, SimulationError, quoted
from .scenario import load_scenario, scenario_from_dict, scenario_to_dict

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_GUARD = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadtrack",
        description="Closed-loop quadrotor trajectory-tracking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write trace + summary")
    run.add_argument("--scenario", required=True, help="scenario JSON file ({} = all defaults)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--dt", type=float, default=None, help="override sim.dt [s]")
    run.add_argument("--duration", type=float, default=None, help="override sim.duration [s]")
    run.add_argument("--seed", type=int, default=None, help="override sim.seed")

    sweep = sub.add_parser("sweep", help="run one scenario per value of a varied parameter")
    sweep.add_argument("--scenario", required=True,
                       help="base scenario JSON file ({} = all defaults)")
    sweep.add_argument("--vary", required=True, action="append", metavar="PATH=V1,V2,...",
                       help="dotted scenario path and comma-separated values, "
                            "e.g. gains.roll.k=100,120,140")
    sweep.add_argument("--out", required=True,
                       help="output directory: one subdirectory per value, and sweep.json")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per member; 1 runs in this process")
    return parser


def _execute(sc, out_dir: Path) -> dict:
    """Run sc into out_dir; an output or memory failure gives {"completed": False, "error": ...}."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        log, metrics = run_scenario(sc)
        write_trace(log, out_dir / "trace.csv", decimation=sc.decimation)
        return write_summary(metrics, sc, out_dir / "summary.json")
    except (OSError, SimulationError, MemoryError) as exc:
        what = "out of memory" if isinstance(exc, MemoryError) else "output error"
        return {"completed": False, "error": f"{what}: {type(exc).__name__}: {exc}"}


def _run_command(args) -> int:
    try:
        overrides = {name: value for name in ("dt", "duration", "seed")
                     if (value := getattr(args, name)) is not None}
        sc = dataclasses.replace(load_scenario(args.scenario), **overrides)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    summary = _execute(sc, Path(args.out))
    if "error" in summary:
        print(summary["error"], file=sys.stderr)
        return EXIT_GUARD
    if not summary["completed"]:
        abort = summary["abort"]
        print(f"run aborted: {abort['reason']} at t={abort['t']:.3f} s: {abort['detail']}",
              file=sys.stderr)
        print(f"partial trace written to {args.out}", file=sys.stderr)
        return EXIT_GUARD
    print("tracking RMSE  " + "  ".join(f"{ch}={'null' if v is None else format(v, '.4g')}"
                                        for ch, v in summary["tracking_rmse"].items()))
    print(f"outputs written to {args.out}")
    return EXIT_OK


def _parse_vary(vary: str):
    if "=" not in vary:
        raise ScenarioError(f"--vary needs PATH=V1,V2,..., got {quoted(vary)}")
    path, _, raw_values = vary.partition("=")
    keys = path.strip().split(".")
    if not all(keys):
        raise ScenarioError(f"--vary has an empty segment in its parameter path: {quoted(vary)}")
    values = []
    for piece in raw_values.split(","):
        piece = piece.strip()
        try:
            values.append(json.loads(piece))
        except (ValueError, RecursionError):  # kept as a string, as for any unparsable piece
            values.append(piece)
    return keys, values


def _set_path(d: dict, keys, value):
    node = d
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ScenarioError(f"cannot descend into scenario path {quoted('.'.join(keys))}")
    node[keys[-1]] = value


def _sweep_command(args) -> int:
    try:
        base = scenario_to_dict(load_scenario(args.scenario))
        keys, values = _parse_vary(args.vary[0])
        names = ["_".join(keys) + f"_{value}" for value in values]
        shared = sorted({name for name in names if names.count(name) > 1})
        if shared:
            raise ScenarioError(f"--vary values share a member directory: {quoted(shared)}")
        scenarios = []
        for value in values:
            sc_dict = copy.deepcopy(base)
            _set_path(sc_dict, keys, value)
            scenarios.append(scenario_from_dict(sc_dict))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO

    out_root = Path(args.out)
    out_dirs = [out_root / name for name in names]
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    # The pool forks all its workers up front, so it gets no more than one per member.
    workers = min(args.jobs, len(scenarios))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 2 MB of RSS that --jobs 1 never needs
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_execute, scenarios, out_dirs))
    else:
        summaries = list(map(_execute, scenarios, out_dirs))

    index = []
    status = EXIT_OK
    for value, out_dir, summary in zip(values, out_dirs, summaries):
        entry = {"value": value, "out": str(out_dir), "completed": summary["completed"]}
        if "error" in summary:
            entry["error"] = summary["error"]
            print(f"{out_dir}: {summary['error']}")
        else:
            entry["tracking_rmse"] = summary["tracking_rmse"]
            print(f"{out_dir}: {'ok' if summary['completed'] else 'ABORTED'}")
        index.append(entry)
        if not summary["completed"]:
            status = EXIT_GUARD
    try:
        (out_root / "sweep.json").write_text(json.dumps(
            {"vary": args.vary[0], "runs": index}, indent=2) + "\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    if args.command == "sweep" and len(args.vary) > 1:
        parser.error(f"argument --vary: given {len(args.vary)} times; a sweep varies one path")
    if args.command == "run":
        return _run_command(args)
    return _sweep_command(args)
