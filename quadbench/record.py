"""Record reference.json, the outputs every benchmark run is checked against.

    python3 quadbench/record.py

Run it from the root of a source checkout, at the commit whose behaviour is
the reference.  It runs the stock mission and every Monte Carlo member seed through the same CLI paths as the
benchmark.  For each run it stores the per-channel tracking and estimation
RMSE, the clamp events, completion and a SHA-256 of the full-rate log, with
the provenance of the recording.
"""

import datetime
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# Sweep members recorded per CLI call; each kept log holds about 2.4 MB.
CHUNK = 16


def entry(summary, log_digest):
    return {
        "completed": summary["completed"],
        "clamp_events": summary["clamp_events"],
        "tracking_rmse": summary["tracking_rmse"],
        "estimation_rmse": summary["estimation_rmse"],
        "trace_sha256": log_digest,
    }


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def checked(op, what):
    if op.problems:
        raise SystemExit(f"{what} failed: {op.problems}")
    return op


def main():
    work_root = ROOT / ".quadbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
    try:
        stock = workloads.write_json(work / "stock.json", {})
        full = checked(workloads.run_command(
            work, stock, None, ("--duration", workloads.MISSION_DURATION)), "stock mission")
        base = workloads.write_json(work / "montecarlo.json", workloads.MONTECARLO_SCENARIO)
        table = {}
        seeds = list(range(workloads.MONTECARLO_TABLE))
        for i in range(0, len(seeds), CHUNK):
            chunk = seeds[i:i + CHUNK]
            op = checked(workloads.sweep_command(work, base, chunk, None), f"sweep {chunk}")
            for seed, summary, log_digest in zip(chunk, op.summaries, op.digests):
                table[str(seed)] = entry(summary, log_digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = {
        "provenance": {
            "commit": git("rev-parse", "HEAD"),
            "src_modified": bool(git("status", "--porcelain", "--", "src")),
            "recorded": datetime.date.today().isoformat(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "mission": {
            "stock": entry(full.summaries[0], full.digests[0]),
        },
        "montecarlo": table,
    }
    workloads.write_json(workloads.REFERENCE_PATH, reference)
    print(f"wrote {workloads.REFERENCE_PATH}: {len(table)} member seeds, "
          f"{sum(not e['completed'] for e in table.values())} aborted, "
          f"{sum(e['clamp_events'] > 0 for e in table.values())} with clamps")


if __name__ == "__main__":
    main()
