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
    scenario_from_dict,
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


class TestPerformanceRecovery:
    def test_estimated_feedback_tracks_as_well_as_true_state_feedback(self):
        # The HGO recovers the performance of state feedback as eps -> 0
        # (Khalil & Praly, IJRNC 2014).  Over 2 s at the stock eps 0.05 the
        # largest gap is x's 2.0e-3; at eps 0.2 on every channel x's gap is
        # 1.07e-2 and this bound fails.
        rmse = [run_scenario(scenario_from_dict({
                    "sim": {"duration": 2.0}, "toggles": {"true_state_feedback": oracle}}
                )).metrics.tracking_rmse for oracle in (False, True)]
        for ch in CHANNELS:
            assert abs(rmse[0][ch] - rmse[1][ch]) < 5e-3, ch

    def test_halving_eps_halves_the_gap_and_quarters_the_estimation_error(self):
        # The recovery has an order: with the same eps on every channel,
        # halving eps halves the tracking-RMSE gap to oracle feedback
        # (measured ratio 2.05-2.42) and quarters the estimation RMSE
        # (3.98-4.03).  The gaps are signed; z's is negative.  Oracle tracking
        # does not read eps, so one oracle run serves every eps.  Roll and
        # pitch are left out: their gaps sit at the command-filter chatter
        # floor and are not monotone in eps (roll's changes sign, ratio
        # -0.93).  y is left out too: its gap sits near that floor (3.6e-5,
        # ratio 1.47) and its estimation ratio is 16.  An HGO that scales
        # beta2 by 1/eps instead of 1/eps^2 fails the gap bound.
        def metrics(eps, oracle=False):
            return run_scenario(scenario_from_dict({
                "gains": {ch: {"eps": eps} for ch in CHANNELS},
                "sim": {"duration": 2.0}, "toggles": {"true_state_feedback": oracle},
            })).metrics

        oracle = metrics(0.1, oracle=True).tracking_rmse
        runs = [metrics(eps) for eps in (0.1, 0.05, 0.025)]
        for ch in ("x", "z", "yaw"):
            gaps = [m.tracking_rmse[ch] - oracle[ch] for m in runs]
            est = [m.estimation_rmse[ch] for m in runs]
            for i in (0, 1):
                assert 1.6 <= gaps[i] / gaps[i + 1] <= 3.0, (ch, gaps)
                assert 3.5 <= est[i] / est[i + 1] <= 4.5, (ch, est)


class TestDisturbanceObserverRate:
    @pytest.mark.parametrize("ch", CHANNELS)
    def test_estimation_error_decays_at_exactly_lam_in_closed_loop(self, ch):
        # With true-state feedback the plant and the DO's model agree, so
        # after a step the error dhat - d decays as exp(-lam t) (channel
        # docstring).  The fitted rate matches -lam to 8.4e-11 on roll,
        # pitch and yaw and 6e-12 on x, y and z, what RK4 at dt 1 ms leaves.
        # A DO that reads the model at the HGO estimates under oracle is off
        # by 3.2e-9 on roll, a 0.1% input-gain mismatch in the roll DO by
        # 0.14, and translational DOs that consume the commanded virtual
        # control abort on the free-fall guard at t = 1.014 s.
        sc = Scenario()
        lam = sc.gains[ch].lam
        end = 1.0 + 8.0 / lam
        disturbances = {c: {"type": "none"} for c in CHANNELS}
        disturbances[ch] = {"type": "step", "value": 0.5, "onset": 1.0}
        log, metrics = run_scenario(scenario_from_dict({
            "disturbances": disturbances, "toggles": {"true_state_feedback": True},
            "sim": {"duration": end},
        }))
        assert metrics.completed
        suffix = {"roll": "phi", "pitch": "theta", "yaw": "psi"}.get(ch, ch)
        t = log.column("t")
        sel = (t > 1.05) & (t <= end)
        err = log.column(f"dhat_{suffix}")[sel] - log.column(f"d_{suffix}")[sel]
        slope = np.polyfit(t[sel], np.log(np.abs(err)), 1)[0]
        assert abs(slope / -lam - 1.0) < 1e-9


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
