"""Smoke test of the benchmark: tiny shapes, every declared metric emitted.

    PYTHONPATH=src python -m pytest -q quadbench/test_smoke.py

The workload shapes are shrunk to fractions of a simulated second and the
reference checks are switched off, because reference.json holds outputs of
the full shapes only.  Everything else runs as in a real run: the CLI
paths, read-back checks, both traced passes and their exact-count check.
"""

import collections
import functools
import json
import math
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "MISSION_DURATION", 0.1)
    monkeypatch.setattr(workloads, "MONTECARLO_MEMBERS", 2)
    monkeypatch.setattr(workloads, "MONTECARLO_SCENARIO",
                        {**workloads.MONTECARLO_SCENARIO, "sim": {"duration": 0.1}})
    monkeypatch.setattr(workloads, "TRACE_IO_DURATION", 0.1)
    monkeypatch.setattr(workloads, "TRACE_IO_PROBE_DURATION", 0.05)
    monkeypatch.setattr(workloads, "SETUP_REPS", 3)
    monkeypatch.setattr(tracer, "wrapper_ns", functools.partial(tracer.wrapper_ns, calls=1000))
    unchecked = {"mission": collections.defaultdict(lambda: None),
                 "montecarlo": collections.defaultdict(lambda: None)}
    monkeypatch.setattr(workloads, "reference", lambda: unchecked)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)


# Exact per-step counts of a traced run: two-pass mixing on the stock
# mission (and on the stock probe of trace_io), one pass with the pinned
# residual speed of the Monte Carlo members.
EXACT = {
    "mission": {"engine.eval.calls_per_step": 4, "attitude.torque.calls_per_step": 24,
                "vehicle.mix.calls_per_step": 8, "attitude.torque.useful_ratio": 0.5},
    "montecarlo": {"engine.eval.calls_per_step": 4, "attitude.torque.calls_per_step": 12,
                   "vehicle.mix.calls_per_step": 4, "attitude.torque.useful_ratio": 1.0},
}
EXACT["trace_io"] = EXACT["mission"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_declared_metric_is_emitted(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        for name, want in EXACT[workload].items():
            assert result["metrics"][name]["value"] == want, name


def test_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "mission", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
