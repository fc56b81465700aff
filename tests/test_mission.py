"""Mission-level properties of the stock 120 s run (shared session fixture)."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from quadtrack import CHANNELS, Scenario, compute_rmse, run_scenario, scenario_from_dict
from quadtrack.disturbances import make_generator
from quadtrack.engine import PLANT_DIM, RIG_SIZE, ClosedLoop
from support import rk4_trajectory


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

    @pytest.mark.parametrize("column, bound", [("phi_des", 0.3), ("theta_des", 0.15), ("Uz", 8.5)])
    def test_commands_stay_inside_the_stock_reach(self, default_run, column, bound):
        # Measured: |phi_des| <= 0.2840 and |theta_des| <= 0.1258 rad, Uz + g >= 8.828 m/s^2.
        # A limit on the tilt or on the vertical command past this reach leaves the run as it is.
        sc, (log, _) = default_run
        v = log.column(column)
        assert (v + sc.params.g).min() > bound if column == "Uz" else np.abs(v).max() < bound


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


def eps_run(eps, oracle=False, duration=2.0, initial_state=(0.0,) * 12, position_do=True):
    """A stock run with every channel's HGO at eps, or under oracle feedback, which reads no eps."""
    return run_scenario(scenario_from_dict({
        "gains": {ch: {"eps": eps} for ch in CHANNELS}, "sim": {"duration": duration},
        "initial_state": initial_state,
        "toggles": {"true_state_feedback": oracle, "position_do": position_do}}))


def moving_start(position_do):
    """One oracle run and eps 0.05, 0.0125 and 0.003125 runs, 3 s from an x velocity of 2 m/s."""
    run = dict(duration=3.0, initial_state=(0.0,) * 7 + (2.0,) + (0.0,) * 4,
               position_do=position_do)
    return eps_run(0.05, oracle=True, **run), [eps_run(eps, **run)
                                               for eps in (0.05, 0.0125, 0.003125)]


class TestPerformanceRecovery:
    def test_halving_eps_halves_the_gap_and_quarters_the_estimation_error(self):
        # The separation principle (Atassi & Khalil, IEEE TAC 1999): as eps -> 0
        # the output-feedback trajectory converges to the state-feedback one.
        # With the same eps on every channel, each halving from 0.1 to 0.00625
        # halves the sup output gap to oracle feedback (measured ratio
        # 1.93-2.14) and the tracking-RMSE gap (1.92-2.42), and quarters the
        # estimation RMSE (3.98-4.03).  The RMSE gaps are signed; z's is
        # negative.  Oracle tracking does not read eps, so one oracle run
        # serves every eps.  Roll, pitch and y are left out: their gaps sit at
        # the command filter's m2*dt chatter floor and are not monotone in eps
        # (roll's RMSE gap changes sign, ratio -0.93; pitch's sup gap is
        # 1.09e-3 at eps 0.1 and 2.2e-4 at 0.0125), and y's estimation ratio
        # is 16.  At the stock eps 0.05 every channel's RMSE gap is under 5e-3
        # (largest x's 2.04e-3; at eps 0.2 x's is 1.07e-2).  An HGO that
        # scales beta2 by 1/eps instead of 1/eps^2 fails the gap bounds.
        oracle = eps_run(0.1, oracle=True)
        runs = [eps_run(eps) for eps in (0.1, 0.05, 0.025, 0.0125, 0.00625)]
        for ch in CHANNELS:
            gap = runs[1].metrics.tracking_rmse[ch] - oracle.metrics.tracking_rmse[ch]
            assert abs(gap) < 5e-3, ch
        for ch, col in (("yaw", "x5"), ("x", "x7"), ("z", "x11")):
            sup = [np.max(np.abs(r.log.column(col) - oracle.log.column(col))) for r in runs]
            gaps = [r.metrics.tracking_rmse[ch] - oracle.metrics.tracking_rmse[ch] for r in runs]
            est = [r.metrics.estimation_rmse[ch] for r in runs]
            for i in range(4):
                assert 1.7 <= sup[i] / sup[i + 1] <= 2.3, (ch, sup)
                assert 1.6 <= gaps[i] / gaps[i + 1] <= 3.0, (ch, gaps)
                assert 3.5 <= est[i] / est[i + 1] <= 4.5, (ch, est)

    @pytest.fixture(scope="class")
    def without_do(self):
        return moving_start(position_do=False)

    @pytest.fixture(scope="class")
    def with_do(self):
        return moving_start(position_do=True)

    @pytest.mark.parametrize("col", ["x7", "x9", "x11"], ids=["x", "y", "z"])
    def test_quartering_eps_halves_the_gap_from_a_moving_start(self, without_do, col):
        # The same property from an x velocity of 2 m/s, 3 s, with the position DOs off: the sup
        # gap falls from 0.0578 to 0.0181 and 0.00447 m on x, from 0.0113 to 0.00336 and 0.00082
        # on y and from 0.0592 to 0.0240 and 0.0024 on z as eps goes from 0.05 to 0.0125 and
        # 0.003125.  With them on it does not fall (test_the_do_keeps_the_gap_from_a_moving_start).
        oracle, runs = without_do
        sup = [np.max(np.abs(r.log.column(col) - oracle.log.column(col))) for r in runs]
        assert sup[0] >= 2.0 * sup[1] and sup[1] >= 2.0 * sup[2], sup

    @pytest.mark.parametrize("col, floor", [("x7", 0.15), ("x11", 0.7)], ids=["x", "z"])
    def test_the_do_keeps_the_gap_from_a_moving_start(self, with_do, col, floor):
        # With the position DOs on, quartering eps shrinks the sup gap by 1.08x at most: 0.2367,
        # 0.2215 and 0.2049 m on x, 0.7675, 0.7600 and 0.7463 on z.  gamma starts at
        # -lam xhat2(0) = 0, so once the HGO converges the estimate carries lam x2(0), which
        # decays at rate lam whatever eps is.
        oracle, runs = with_do
        sup = [np.max(np.abs(r.log.column(col) - oracle.log.column(col))) for r in runs]
        assert sup[0] < 1.25 * sup[1] and sup[1] < 1.25 * sup[2] and sup[2] > floor, sup

    def test_the_do_estimate_peaks_from_a_moving_start(self, with_do):
        # That transient: |dhat_x| peaks at 9.90, 12.07 and 12.76 against a true |d_x| of at
        # most 0.296; under oracle feedback gamma starts at -lam x2(0), and it peaks at 0.276.
        oracle, runs = with_do
        true_peak = np.abs(oracle.log.column("d_x")).max()
        assert np.abs(oracle.log.column("dhat_x")).max() < 1.0
        for r in runs:
            assert np.abs(r.log.column("dhat_x")).max() > 20.0 * true_peak


def rms(v):
    return float(np.sqrt(np.mean(np.square(v))))


def filter_split(sc):
    """The log of sc and each channel's command filter output z1, a column per channel in
    CHANNELS order.  The log holds no rig state, so the loop is stepped again, as run_scenario
    steps it: the plant states match the log's bit for bit."""
    log, _ = run_scenario(sc)
    loop = ClosedLoop(sc)
    states = rk4_trajectory(loop.derivative, loop.initial_state(), len(log) - 1, sc.dt)
    assert states[:, :PLANT_DIM].tobytes() == log.data[:, 1:PLANT_DIM + 1].tobytes()
    return log, states[:, PLANT_DIM::RIG_SIZE]


class TestCommandFilterShare:
    # The law tracks the command filter's z1 (Levant, Automatica 1998), not the reference
    # itself, so a tracking error splits into the law's output - z1 and the filter's lag
    # z1 - reference.  Over the stock 0.5 s, roll's RMS error of 0.1618 rad is 0.005615 of law
    # error and 0.1579 of lag; pitch's 0.00529 rad is 13.9% law error, so it is left out.
    @pytest.fixture(scope="class")
    def splits(self):
        stock = dataclasses.replace(Scenario(), duration=0.5)
        fast = scenario_from_dict({"sim": {"duration": 0.5},
                                   "gains": {"roll": {"m1": 10.0}, "pitch": {"m1": 10.0}}})
        return filter_split(stock), filter_split(fast)

    def test_roll_error_is_mostly_the_filter_lag(self, splits):
        log, z1 = splits[0]
        phi = log.column("x1")
        assert rms(phi - z1[:, 0]) < 0.05 * rms(phi - log.column("phi_des"))

    @pytest.mark.parametrize("i, ref", [(3, "xr"), (4, "yr"), (5, "zr")], ids=["x", "y", "z"])
    def test_position_filter_lag_is_small(self, splits, i, ref):
        # Measured 8.1e-8, 0.01852 and 0.00484 m: x, y and z's errors are the law's.
        log, z1 = splits[0]
        assert rms(z1[:, i] - log.column(ref)) < 0.02

    def test_raising_roll_m1_trades_lag_for_law_error(self, splits):
        # m1 10 on roll and pitch: roll's lag falls from 0.158 to 0.0573 and its law error rises
        # from 0.0056 to 0.0417.  Pitch's lag rises, from 0.00543 to 0.00634.
        lag = [rms(z1[:, 0] - log.column("phi_des")) for log, z1 in splits]
        law = [rms(log.column("x1") - z1[:, 0]) for log, z1 in splits]
        assert lag[1] < 0.5 * lag[0] and law[1] > 2.0 * law[0], (lag, law)


@pytest.fixture(scope="module")
def x_rmse_by_x_m2():
    return [run_scenario(scenario_from_dict({"sim": {"duration": 10.0}, "gains": {"x": {"m2": m2}}}))
            .metrics.tracking_rmse["x"] for m2 in (0.1, 0.3, 1.0)]


class TestFilterAccelerationTerm:
    # The law adds the command filter's dz2 = -m2 sign(z1 - ref) as the reference acceleration,
    # a bang-bang term, so x's error grows with x's m2: over a 10 s stock run x's tracking RMSE
    # is 0.229, 0.315 and 0.395 m at m2 0.1, 0.3 and 1.0 (ratios 1.38 and 1.25).  Shorter runs
    # do not order it: at 2 s the RMSE is 0.0398 m at 0.3 and 0.0369 at 1.0, and at 5 s the
    # second ratio is 1.02.
    @pytest.mark.parametrize("i", [0, 1], ids=["0.1-0.3", "0.3-1"])
    def test_x_error_grows_with_x_m2(self, x_rmse_by_x_m2, i):
        assert x_rmse_by_x_m2[i + 1] >= 1.15 * x_rmse_by_x_m2[i], x_rmse_by_x_m2


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
    def test_halving_dt_leaves_rmse_unchanged(self, default_run):
        # 30 s window of the stock mission at 1 ms vs 0.5 ms.  Position
        # channels move well under 1%.  Attitude RMSEs sit at the command
        # filter chatter floor (the sign-term dither is dt-scaled by design),
        # so they get an absolute allowance at that floor instead.  A shorter
        # stock run is a bitwise prefix of a longer one, so the 1 ms side is
        # the session's 120 s run over its first 30 s.
        m1 = compute_rmse(default_run[1].log, (0.0, 30.0)).tracking_rmse
        half = dataclasses.replace(Scenario(), duration=30.0, dt=5e-4)
        m2 = run_scenario(half).metrics.tracking_rmse
        for ch in ("x", "y", "z"):
            assert abs(m1[ch] - m2[ch]) / m2[ch] < 0.01
        for ch in ("roll", "pitch", "yaw"):
            rel = abs(m1[ch] - m2[ch]) / m2[ch]
            assert rel < 0.01 or abs(m1[ch] - m2[ch]) < 5e-4


def rk4_reach(roots):
    """The largest c with |R(c r)| <= 1 at every root r, by bisection, where R(z) = 1 + z +
    z^2/2 + z^3/6 + z^4/24 is RK4's amplification factor."""
    lo, hi = 0.0, 10.0
    for _ in range(60):
        c = 0.5 * (lo + hi)
        if all(abs(sum((c * r) ** j / math.factorial(j) for j in range(5))) <= 1.0 for r in roots):
            lo = c
        else:
            hi = c
    return lo


class TestRk4StabilityBound:
    # A fixed step is stable while dt * s stays in RK4's region for each rig-local mode s: the
    # HGO's, the roots of r^2 + beta1 r + beta2 over eps (Khalil & Praly, IJRNC 2014), the
    # lag's -1/tau and the DO's -lam.  A 1 s stock run completes with the gain 5% inside that
    # bound and aborts 5% outside it, on the angle guard (attitude) or the free-fall guard
    # (position), neither of which names the gain.
    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    @pytest.mark.parametrize("ch, name, beta1, beta2", [
        *((ch, name, 1.0, 2.0) for ch in CHANNELS for name in ("eps", "tau", "lam")),
        *(("z", "eps", b1, b2) for b1, b2 in ((3.0, 2.0), (1.0, 0.2), (2.0, 1.0)))])
    def test_a_gain_past_the_bound_aborts(self, ch, name, beta1, beta2, inside):
        dt = 1e-3
        c = rk4_reach(np.roots([1.0, beta1, beta2]) if name == "eps" else [-1.0])
        bound = c / dt if name == "lam" else dt / c
        # eps and tau are stable above their bound, lam below it.
        value = bound * (1.05 if inside is (name != "lam") else 0.95)
        _, metrics = run_scenario(scenario_from_dict({
            "gains": {ch: {name: value, "beta1": beta1, "beta2": beta2}},
            "sim": {"dt": dt, "duration": 1.0}}))
        assert metrics.completed is inside

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_a_step_past_the_bound_aborts(self, inside):
        # Roll eps 0.002 allows dt up to 3.904e-3; 250 steps either side of it.
        dt = 0.002 * rk4_reach(np.roots([1.0, 1.0, 2.0])) * (0.95 if inside else 1.05)
        _, metrics = run_scenario(scenario_from_dict({
            "gains": {"roll": {"eps": 0.002}}, "sim": {"dt": dt, "duration": 250 * dt}}))
        assert metrics.completed is inside
