"""quadtrack benchmark: one workload, end-to-end or per-layer metrics.

    python3 quadbench/run.py --workload mission --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports quadtrack from ./src
and refuses to run without it.  It prints a readable report and, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 gives the end-to-end metrics of BENCHMARK.json, with
no tracing; --trace 1 gives its per-layer metrics from a short fixed
operation whose module boundaries are wrapped from outside (tracer.py).
Scratch files go under ./.quadbench_work, and the spans of a traced run are
kept there as spans/<workload>-seed<n>.npz.

design.json states the workloads, tolerances and the metric-to-layer map;
record.py re-records reference.json; test_smoke.py runs every workload at
tiny sizes (PYTHONPATH=src python -m pytest quadbench).
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".quadbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mission", "montecarlo", "trace_io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    package = ROOT / "src" / "quadtrack" / "__init__.py"
    if not package.is_file():
        print(f"quadbench: no quadtrack sources at {package.parent}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads  # needs quadtrack from ./src

    (WORK_ROOT / "spans").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    tally = workloads.Tally()
    try:
        if args.trace:
            spans = WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.npz"
            values = workloads.trace(args.workload, args.seed, work, tally, spans)
        else:
            values = workloads.measure(args.workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        tally.problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: (values[name], unit) for name, unit in units.items() if name in values}

    print(f"quadbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in {**metrics, **tally.info}.items():
        print(f"  {name:38s} {value} {unit}".rstrip())
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':38s} {failed_frac}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": not tally.problems and tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
