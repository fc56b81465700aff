"""Command-line entry points.

    quadtrack run   --scenario mission.json --out results/
    quadtrack sweep --scenario mission.json --vary gains.roll.k=100,120,140 \
                    --out sweeps/ [--jobs 4]

Exit codes: 0 success, 2 scenario validation failure, 3 runtime guard abort.
"""

import argparse
import copy
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .engine import run_scenario, write_summary, write_trace
from .errors import ScenarioError
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
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--vary", required=True, metavar="PATH=V1,V2,...",
                       help="dotted scenario path and comma-separated values, "
                            "e.g. gains.roll.k=100,120,140")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--jobs", type=int, default=1)
    return parser


def _apply_overrides(sc_dict: dict, args) -> dict:
    sim = sc_dict.setdefault("sim", {})
    if args.dt is not None:
        sim["dt"] = args.dt
    if args.duration is not None:
        sim["duration"] = args.duration
    if args.seed is not None:
        sim["seed"] = args.seed
    return sc_dict


def _execute(sc, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    log, metrics = run_scenario(sc)
    write_trace(log, out_dir / "trace.csv", decimation=sc.decimation)
    summary = write_summary(metrics, sc, out_dir / "summary.json")
    return summary


def _run_command(args) -> int:
    try:
        sc_dict = scenario_to_dict(load_scenario(args.scenario))
        sc = scenario_from_dict(_apply_overrides(sc_dict, args))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    summary = _execute(sc, Path(args.out))
    if not summary["completed"]:
        abort = summary["abort"]
        print(f"run aborted: {abort['reason']} at t={abort['t']:.3f} s: {abort['detail']}",
              file=sys.stderr)
        print(f"partial trace written to {args.out}", file=sys.stderr)
        return EXIT_GUARD
    rmse = summary["tracking_rmse"]
    print("tracking RMSE  " + "  ".join(f"{ch}={rmse[ch]:.4g}" for ch in rmse))
    print(f"outputs written to {args.out}")
    return EXIT_OK


def _parse_vary(vary: str):
    if "=" not in vary:
        raise ScenarioError(f"--vary needs PATH=V1,V2,..., got {vary!r}")
    path, _, raw_values = vary.partition("=")
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ScenarioError(f"--vary has an empty parameter path: {vary!r}")
    values = []
    for piece in raw_values.split(","):
        piece = piece.strip()
        try:
            values.append(json.loads(piece))
        except json.JSONDecodeError:
            values.append(piece)
    if not values:
        raise ScenarioError(f"--vary has no values: {vary!r}")
    return keys, values


def _set_path(d: dict, keys, value):
    node = d
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ScenarioError(f"cannot descend into scenario path {'.'.join(keys)}")
    node[keys[-1]] = value


def _sweep_worker(payload):
    sc_dict, out_dir = payload
    sc = scenario_from_dict(sc_dict)
    return _execute(sc, Path(out_dir))


def _sweep_command(args) -> int:
    try:
        base = scenario_to_dict(load_scenario(args.scenario))
        keys, values = _parse_vary(args.vary)
        jobs = []
        out_root = Path(args.out)
        for value in values:
            sc_dict = copy.deepcopy(base)
            _set_path(sc_dict, keys, value)
            scenario_from_dict(sc_dict)  # validate before launching anything
            tag = "_".join(keys) + f"_{value}"
            jobs.append((sc_dict, str(out_root / tag)))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO

    out_root.mkdir(parents=True, exist_ok=True)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            summaries = list(pool.map(_sweep_worker, jobs))
    else:
        summaries = [_sweep_worker(job) for job in jobs]

    index = []
    status = EXIT_OK
    for (sc_dict, out_dir), summary in zip(jobs, summaries):
        index.append({
            "value": _dig(sc_dict, keys),
            "out": out_dir,
            "completed": summary["completed"],
            "tracking_rmse": summary["tracking_rmse"],
        })
        marker = "ok" if summary["completed"] else "ABORTED"
        print(f"{out_dir}: {marker}")
        if not summary["completed"]:
            status = EXIT_GUARD
    (out_root / "sweep.json").write_text(json.dumps(
        {"vary": args.vary, "runs": index}, indent=2) + "\n")
    return status


def _dig(d: dict, keys):
    node = d
    for key in keys:
        node = node[key]
    return node


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _run_command(args)
    return _sweep_command(args)


if __name__ == "__main__":
    sys.exit(main())
