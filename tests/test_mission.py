"""Mission-level properties of the stock 120 s run (shared session fixture)."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from quadtrack import (
    CHANNELS,
    Scenario,
    make_generator,
    run_scenario,
)


class TestStockMission:
    def test_log_is_uniformly_sampled(self, default_run):
        sc, (log, _) = default_run
        t = log.column("t")
        assert len(log) == 120001
        assert np.allclose(np.diff(t), sc.dt, atol=1e-9)

    def test_logged_disturbances_match_generators(self, default_run):
        # wiring integrity: the trace columns must reproduce exactly what the
        # generators produce at the logged times (same seed derivation)
        sc, (log, _) = default_run
        t = log.column("t")
        idx = np.linspace(0, len(t) - 1, 400).astype(int)
        names = ("d_phi", "d_theta", "d_psi", "d_x", "d_y", "d_z")
        for ch_index, (ch, col) in enumerate(zip(CHANNELS, names)):
            gen = make_generator(sc.disturbances[ch],
                                 np.random.SeedSequence((sc.seed, ch_index)),
                                 sc.duration)
            logged = log.column(col)
            for i in idx:
                assert logged[i] == gen.value(t[i])

    def test_attitude_do_tracks_held_noise_between_jumps(self, default_run):
        # within each 15 s hold interval of the roll noise, the estimation
        # error collapses onto the disturbance well before the next boundary;
        # the spikes live only at the boundaries
        sc, (log, _) = default_run
        t = log.column("t")
        err = np.abs(log.column("dhat_phi") - log.column("d_phi"))
        lam = sc.gains["roll"].lam
        for k in range(8):
            start, end = 15.0 * k, 15.0 * (k + 1)
            early = err[(t >= start) & (t < start + 5.0 / lam)]
            late = err[(t >= start + 5.0 / lam) & (t < end)]
            assert late.max() <= max(5e-3, 0.05 * max(early.max(), 1e-9))

    def test_estimation_errors_are_small(self, default_run):
        _, (log, metrics) = default_run
        for ch in CHANNELS:
            assert metrics.estimation_rmse[ch] < 5e-3

    def test_velocity_estimates_follow_true_rates(self, default_run):
        # rates are never measured; the rate estimates still track truth
        _, (log, _) = default_run
        t = log.column("t")
        sel = t > 5.0
        for xhat, x in (("xhat2", "x2"), ("xhat8", "x8"), ("xhat12", "x12")):
            err = log.column(xhat)[sel] - log.column(x)[sel]
            assert np.sqrt(np.mean(err ** 2)) < 0.05


BENCH = Path(__file__).resolve().parent.parent / "quadbench"


class TestRecordedBehaviour:
    def test_stock_half_second_matches_the_recorded_reference(self):
        # The benchmark's recorded outputs for its mission workload, checked
        # within the tolerances its design file states.
        ref = json.loads((BENCH / "reference.json").read_text())["mission"]["stock"]
        tol = json.loads((BENCH / "design.json").read_text())["tolerance"]
        _, metrics = run_scenario(dataclasses.replace(Scenario(), duration=0.5))
        assert metrics.completed is ref["completed"]
        assert metrics.clamp_events == ref["clamp_events"]
        for key in ("tracking_rmse", "estimation_rmse"):
            got, want = getattr(metrics, key), ref[key]
            for ch in CHANNELS:
                assert math.isclose(got[ch], want[ch], rel_tol=tol["rmse_rtol"],
                                    abs_tol=tol["rmse_atol"]), (key, ch)


class TestTimeStepRobustness:
    def test_halving_dt_leaves_rmse_unchanged(self):
        # 30 s window of the stock mission at 1 ms vs 0.5 ms.  Position
        # channels move well under 1%.  Attitude RMSEs sit at the command
        # filter chatter floor (the sign-term dither is dt-scaled by design),
        # so they get an absolute allowance at that floor instead.
        sc1 = dataclasses.replace(Scenario(), duration=30.0)
        sc2 = dataclasses.replace(Scenario(), duration=30.0, dt=5e-4)
        m1 = run_scenario(sc1).metrics.tracking_rmse
        m2 = run_scenario(sc2).metrics.tracking_rmse
        for ch in ("x", "y", "z"):
            assert abs(m1[ch] - m2[ch]) / m2[ch] < 0.01
        for ch in ("roll", "pitch", "yaw"):
            rel = abs(m1[ch] - m2[ch]) / m2[ch]
            assert rel < 0.01 or abs(m1[ch] - m2[ch]) < 5e-4
