import copy
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadtrack import (
    CHANNELS,
    COLUMNS,
    AngleGuardError,
    Metrics,
    NonFiniteError,
    QuadrotorParams,
    Scenario,
    SimLog,
    SimulationError,
    compute_rmse,
    read_trace,
    run_scenario,
    scenario_from_dict,
    write_summary,
    write_trace,
)
from quadtrack import engine, traceformat
from quadtrack.channel import do_derivative, hgo_derivative
from quadtrack.engine import PLANT_DIM, RIG_SIZE, STATE_DIM, ClosedLoop, rk4_step
from quadtrack.vehicle import (
    ANGLE_LIMIT,
    acceleration_from_attitude,
    attitude_coupling,
    attitude_input_gain,
    residual_speed,
    state_derivative,
)
from support import rk4_trajectory


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRk4:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 48).flatmap(
               lambda n: st.lists(st.lists(finite, min_size=n, max_size=n), min_size=5, max_size=5)),
           st.floats(0.0, 0.01, exclude_min=True))
    def test_entries_are_the_array_formulas_doubles(self, vectors, dt):
        # The docstring's claim: stage states and result, entry by entry, are the doubles
        # the float64 array formula gives, overflow to inf and nan included.
        a, *ks = vectors
        stages = []

        def f(t, x):
            stages.append(x)
            return ks[len(stages) - 1]

        result = rk4_step(f, a, 0.0, dt)
        A, K1, K2, K3, K4 = (np.asarray(v) for v in vectors)
        half = 0.5 * dt
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [A, A + half * K1, A + half * K2, A + dt * K3]
            stepped = A + (dt / 6.0) * (K1 + 2.0 * (K2 + K3) + K4)
        assert [np.asarray(x).tobytes() for x in stages] == [x.tobytes() for x in expected]
        assert np.asarray(result).tobytes() == stepped.tobytes()

    def test_constant_state(self):
        assert np.asarray(rk4_step(lambda t, y: [0.0], [3.5], 0.0, 0.1)).tobytes() == \
            np.asarray([3.5]).tobytes()

    def test_exponential_one_step(self):
        (y1,) = rk4_step(lambda t, y: y, [1.0], 0.0, 0.1)
        assert abs(y1 - math.exp(0.1)) < 3e-7

    def test_fourth_order_convergence(self):
        def global_error(h):
            y = rk4_trajectory(lambda t, s: s, [1.0], int(round(1.0 / h)), h)
            return abs(y[-1, 0] - math.e)

        ratio = global_error(1e-2) / global_error(5e-3)
        assert 14.0 <= ratio <= 18.0

    def test_vector_state(self):
        # harmonic oscillator energy is conserved to O(dt^4) per period
        s = rk4_trajectory(lambda t, s: [s[1], -s[0]], [1.0, 0.0], 1000, 1e-3)[-1]
        assert s[0] == pytest.approx(math.cos(1.0), abs=1e-10)

    def test_accepts_precomputed_first_stage(self):
        f = lambda t, y: y
        assert np.asarray(rk4_step(f, [1.0], 0.0, 0.1, k1=f(0.0, [1.0]))).tobytes() == \
            np.asarray(rk4_step(f, [1.0], 0.0, 0.1)).tobytes()


stock_and_held_noise = pytest.mark.parametrize("sc", [
    dataclasses.replace(Scenario(), duration=1.0),
    scenario_from_dict({
        "trajectory": {"type": "waypoints", "points": [[0, 0, 0, 1], [2, 1, 0, 1.5]]},
        "disturbances": {ch: {"type": "noise", "kind": kind, **spec, "hold": 0.01}
                         for ch, (kind, spec) in zip(CHANNELS, 2 * [
                             ("gaussian", {"sigma": 0.05}),
                             ("uniform", {"low": -0.1, "high": 0.1}),
                             ("band_limited", {"power": 1e-3, "inner_dt": 0.001})])},
        "sim": {"duration": 1.0},
    }),
], ids=["stock", "waypoints-held-noise"])


def hover_scenario(duration=0.2):
    return scenario_from_dict({
        "trajectory": {"type": "waypoints", "points": [[0.0, 0.5, -0.5, 1.0]]},
        "disturbances": dict.fromkeys(CHANNELS, {"type": "none"}),
        "initial_state": [0.0] * 6 + [0.5, 0.0, -0.5, 0.0, 1.0, 0.0],
        "sim": {"duration": duration},
    })


class TestClosedLoopDerivative:
    def test_perfect_hover_is_equilibrium(self):
        sc = hover_scenario()
        loop = ClosedLoop(sc)
        a = loop.initial_state()
        deriv = loop.derivative(0.0, a)
        assert np.all(np.abs(deriv[:12]) < 1e-9)
        # and it stays there: integrate a while, plant rows remain quiet
        a = rk4_trajectory(loop.derivative, a, 200, sc.dt)[-1].tolist()
        assert np.all(np.abs(loop.derivative(0.2, a)[:12]) < 1e-6)

    def test_oracle_start_has_a_zero_disturbance_estimate(self):
        # gamma(0) = -lam * rate(0), so dhat = gamma + lam * rate is 0.0 at t = 0 on every
        # channel, whatever the initial rates (initial_state's docstring).
        state = (0.1, 0.3, -0.1, -0.2, 0.0, 0.5, 0.0, 2.0, 0.0, -1.0, 0.0, 0.7)
        loop = ClosedLoop(dataclasses.replace(Scenario(), true_state_feedback=True,
                                              initial_state=state))
        _, row = loop.signals(0.0, loop.initial_state())
        assert [v for c, v in zip(COLUMNS, row) if c.startswith("dhat_")] == [0.0] * 6

    def test_angle_guard_fires_at_the_limit(self):
        loop = ClosedLoop(Scenario())
        a = loop.initial_state()
        a[0] = ANGLE_LIMIT
        with pytest.raises(AngleGuardError):
            loop.derivative(0.0, a)

    def test_position_do_toggle_is_transparent_when_estimate_is_zero(self):
        # dhat = gamma + lam*xhat2 vanishes on this state, so removing the
        # compensation term cannot change any derivative entry.
        sc_on = hover_scenario()
        sc_off = dataclasses.replace(sc_on, position_do=False)
        a = np.asarray(ClosedLoop(sc_on).initial_state())
        rng = np.random.default_rng(31)
        a[:12] += rng.normal(0.0, 0.05, 12)
        for ch in ("x", "y", "z"):
            base = PLANT_DIM + RIG_SIZE * CHANNELS.index(ch)
            a[base:base + 5] += rng.normal(0.0, 0.05, 5)
            lam = sc_on.gains[ch].lam
            a[base + 5] = -lam * a[base + 4]  # gamma forcing dhat == 0
        d_on = ClosedLoop(sc_on).derivative(0.05, a.tolist())
        d_off = ClosedLoop(sc_off).derivative(0.05, a.tolist())
        assert np.array_equal(d_on, d_off)

    @staticmethod
    def oracle_pair():
        """Stock loops with estimated and with true-state feedback, and a random
        state whose HGO estimates equal the true outputs and rates."""
        sc = dataclasses.replace(Scenario(), duration=0.2)
        oracle = dataclasses.replace(sc, true_state_feedback=True)
        rng = np.random.default_rng(5)
        a = np.asarray(ClosedLoop(sc).initial_state())
        a += rng.normal(0.0, 0.05, a.shape)
        for i in range(len(CHANNELS)):
            base = PLANT_DIM + RIG_SIZE * i
            a[base + 3:base + 5] = a[2 * i:2 * i + 2]
        return ClosedLoop(sc), ClosedLoop(oracle), a

    def test_oracle_feedback_is_transparent_when_estimates_are_exact(self):
        loop, oracle, a = self.oracle_pair()
        a = a.tolist()
        assert np.array_equal(loop.derivative(0.05, a), oracle.derivative(0.05, a))

    def test_oracle_feedback_reads_true_states(self):
        loop, oracle, a = self.oracle_pair()
        for i in range(len(CHANNELS)):
            base = PLANT_DIM + RIG_SIZE * i
            a[base + 3:base + 5] += 0.01
        # the control laws read different feedback, so the plant sees other inputs
        d_est, d_true = loop.derivative(0.05, a.tolist()), oracle.derivative(0.05, a.tolist())
        assert not np.array_equal(d_est[:PLANT_DIM], d_true[:PLANT_DIM])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_oracle_feedback_rejects_a_non_finite_estimate(self, value):
        # No leaf check stands between an HGO estimate and math.sin under
        # oracle feedback, so the whole state is checked first.
        oracle = ClosedLoop(scenario_from_dict({"toggles": {"true_state_feedback": True}}))
        a = oracle.initial_state()
        a[15] = value  # the roll rig's xhat1
        with pytest.raises(NonFiniteError, match="augmented state entry 15"):
            oracle.derivative(0.0, a)

    # Neither a long state, evaluated on its first STATE_DIM entries, nor a short one, failing
    # with a bare IndexError: the length is checked before the angle guard reads entry 0.
    @pytest.mark.parametrize("size", [STATE_DIM - 1, STATE_DIM + 1])
    @pytest.mark.parametrize("method", ["derivative", "signals"])
    def test_state_of_the_wrong_length_is_rejected(self, method, size):
        loop = ClosedLoop(hover_scenario())
        a = loop.initial_state()
        a[0] = 2.0  # past the angle guard
        a = (a + [0.0])[:size]
        with pytest.raises(ValueError, match=f"augmented state has {size} entries, "
                                             f"not STATE_DIM = {STATE_DIM}"):
            getattr(loop, method)(0.0, a)

    def test_finite_difference_consistency(self):
        # (a' - a)/dt agrees with the midpoint derivative to O(dt^2) on a
        # smooth segment (early transient, no disturbances, no sign flips).
        sc = scenario_from_dict({
            "disturbances": dict.fromkeys(CHANNELS, {"type": "none"}),
            "sim": {"duration": 1.0},
        })
        loop = ClosedLoop(sc)
        a = loop.initial_state()
        t = 0.0
        for i in range(200):
            a = rk4_step(loop.derivative, a, t, sc.dt)
            t += sc.dt

        def fd_error(dt):
            a0, a2 = np.asarray(a), np.asarray(rk4_step(loop.derivative, a, t, dt))
            fd = (a2 - a0) / dt
            mid = loop.derivative(t + 0.5 * dt, (0.5 * (a0 + a2)).tolist())
            return np.linalg.norm(fd - mid)

        e1, e2 = fd_error(1e-3), fd_error(5e-4)
        assert e1 / e2 > 3.0  # second-order scaling (ratio ~4)

    @stock_and_held_noise
    def test_state_api_returns_new_lists_of_floats(self, sc):
        # initial_state, derivative and signals speak lists of Python floats; no call
        # changes the list it reads, and each returns a new one, so k1..k4 never alias.
        def floats(values, size):
            return type(values) is list and len(values) == size and \
                all(type(v) is float for v in values)

        loop = ClosedLoop(sc)
        a = loop.initial_state()
        assert floats(a, STATE_DIM) and loop.initial_state() is not a
        a = rk4_step(loop.derivative, a, 0.0, sc.dt)
        before = np.asarray(a).tobytes()
        deriv = loop.derivative(0.1, a)
        signals = loop.signals(0.1, a)
        assert floats(deriv, STATE_DIM)
        assert floats(signals[0], STATE_DIM) and floats(signals[1], len(COLUMNS))
        assert np.asarray(a).tobytes() == before

        stages, ks = [], []

        def f(t, x):
            stages.append(x)
            ks.append(loop.derivative(t, x))
            return ks[-1]

        new = rk4_step(f, a, 0.1, sc.dt)
        assert np.asarray(a).tobytes() == before
        assert stages[0] is a and floats(new, STATE_DIM)
        objects = [a, new, deriv, *signals, *ks, *stages[1:]]
        assert len({id(v) for v in objects}) == len(objects) == 12

    @stock_and_held_noise
    def test_derivative_is_a_pure_function_of_t_and_state(self, sc):
        # The module docstring's claim: evaluating elsewhere in between changes no bit.
        def snapshot(loop):
            attrs = {k: v for k, v in vars(loop).items() if k != "clamp_events"}
            tables = [{s: copy.copy(getattr(v.__self__, s)) for s in v.__self__.__slots__}
                      for v in loop._values]
            return attrs, tables

        loop = ClosedLoop(sc)
        a = np.asarray(loop.initial_state())
        a[:PLANT_DIM] += 0.01 * np.arange(PLANT_DIM)
        first = np.asarray(loop.derivative(0.125, a.tolist()))
        before = snapshot(loop)
        loop.signals(0.9, (a + 0.01 * first).tolist())
        rk4_step(loop.derivative, (a + 0.02 * first).tolist(), 0.5, sc.dt)
        assert np.asarray(loop.derivative(0.125, a.tolist())).tobytes() == first.tobytes()
        assert np.asarray(ClosedLoop(sc).derivative(0.125, a.tolist())).tobytes() == first.tobytes()
        assert snapshot(loop) == before

    def test_free_fall_descends_monotonically(self):
        # plant-only sanity: zero inputs, vertical velocity only decreases
        p = QuadrotorParams()
        u = (0.0, 0.0, 0.0, 0.0)
        vz = rk4_trajectory(lambda t, s: state_derivative(p, s, u, 0.0), [0.0] * 12, 500, 1e-3)
        assert np.all(np.diff(vz[:, 11]) < 0.0)


class TestObserverRows:
    """Every rig's HGO and DO rows of signals() rebuilt from the public model functions."""

    @staticmethod
    def model(params, outputs, rates, omega_r, up):
        """The six rate-row model terms, inputs left out, in CHANNELS order."""
        return ([attitude_coupling(axis, params, rates, omega_r) for axis in CHANNELS[:3]]
                + list(acceleration_from_attitude(params, outputs[0], outputs[1], outputs[2], up)))

    @pytest.mark.parametrize("pinned", [None, 40.0], ids=["two_pass", "pinned"])
    @pytest.mark.parametrize("oracle", [False, True], ids=["estimates", "oracle"])
    def test_hgo_reads_estimates_and_do_reads_feedback(self, oracle, pinned):
        sc = Scenario(duration=1.0, fixed_residual_speed=pinned, true_state_feedback=oracle)
        loop, params = ClosedLoop(sc), sc.params
        col = {name: i for i, name in enumerate(COLUMNS)}
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = (loop.initial_state() + rng.normal(0.0, 0.1, STATE_DIM)).tolist()
            deriv, row = loop.signals(rng.uniform(0.0, sc.duration), a)
            up, *torques = (row[col[name]] for name in ("Up", "Uphi", "Utheta", "Upsi"))
            speeds = tuple(row[col[f"w{k}"]] for k in range(1, 5))
            omega_r = residual_speed(speeds) if pinned is None else pinned
            xhat1, xhat2 = a[PLANT_DIM + 3::RIG_SIZE], a[PLANT_DIM + 4::RIG_SIZE]
            fb1, fb2 = (a[0:PLANT_DIM:2], a[1:PLANT_DIM:2]) if oracle else (xhat1, xhat2)
            nominal = self.model(params, xhat1, xhat2, omega_r, up)
            feedback = self.model(params, fb1, fb2, omega_r, up)
            inputs = [attitude_input_gain(axis, params) * u
                      for axis, u in zip(CHANNELS, torques)] + [0.0, 0.0, 0.0]
            for i, ch in enumerate(CHANNELS):
                g, base = sc.gains[ch], PLANT_DIM + RIG_SIZE * i
                hgo = hgo_derivative(xhat1[i], xhat2[i], g.beta1, g.beta2, g.eps, a[2 * i],
                                     nominal[i], inputs[i])
                do = do_derivative(a[base + 5], g.lam, fb2[i], feedback[i], inputs[i])
                assert tuple(deriv[base + 3:base + 6]) == (*hgo, do), ch


class TestRunScenario:
    def test_log_shape_and_spacing(self):
        sc = dataclasses.replace(Scenario(), duration=0.5)
        log, metrics = run_scenario(sc)
        assert log.data.shape == (501, len(COLUMNS))
        t = log.column("t")
        assert np.all(np.diff(t) > 0)
        assert np.allclose(np.diff(t), sc.dt, atol=1e-12)
        assert metrics.completed

    def test_short_run_determinism(self):
        sc = dataclasses.replace(Scenario(), duration=2.0)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert np.array_equal(a.log.data, b.log.data)

    def test_angle_guard_aborts_with_partial_log(self):
        # start near the roll limit and kick the channel harder than the
        # observer can absorb within the remaining margin
        sc = scenario_from_dict({
            "disturbances": {
                **{ch: {"type": "none"} for ch in ("pitch", "yaw", "x", "y", "z")},
                "roll": {"type": "step", "value": 200.0, "onset": 0.0},
            },
            "initial_state": [1.45] + [0.0] * 11,
            "sim": {"duration": 5.0},
        })
        log, metrics = run_scenario(sc)
        assert not metrics.completed
        assert metrics.abort["reason"] == "AngleGuardError"
        assert 0 < len(log) < 5001
        assert log.column("t")[-1] < 1.0

    def test_free_fall_demand_hits_denominator_guard(self):
        sc = scenario_from_dict({
            "trajectory": {"type": "waypoints", "points": [[0.0, 0.0, 0.0, -100.0]]},
            "sim": {"duration": 1.0},
        })
        log, metrics = run_scenario(sc)
        assert not metrics.completed
        assert metrics.abort["reason"] == "DenominatorTooSmallError"
        assert len(log) == 0  # rejected on the very first evaluation

    # With these eps the roll HGO's estimates overflow within the RK4 stages.
    # Under oracle feedback the first leaf to read a non-finite output
    # estimate is math.sin, which raises ValueError unless the state check
    # stops the evaluation first (eps 1e-45 reaches it).  With 1e-45 and
    # 1e-100 the logged estimates also overflow r * r in compute_rmse.
    @pytest.mark.parametrize("eps", [1e-45, 1e-100, 1e-160])
    def test_overflowing_oracle_run_aborts_without_warnings(self, eps):
        sc = scenario_from_dict({
            "toggles": {"true_state_feedback": True}, "gains": {"roll": {"eps": eps}},
            "initial_state": [0.1] + [0.0] * 11, "sim": {"duration": 0.01}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log, metrics = run_scenario(sc)
        assert not metrics.completed
        assert metrics.abort["reason"] == "NonFiniteError"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_step_that_ends_non_finite_aborts_at_its_start(self, monkeypatch, bad):
        # Every stage state was finite; only the combined new state is not.
        step = engine.rk4_step
        monkeypatch.setattr(engine, "rk4_step", lambda *args, **kw: [*step(*args, **kw)[:-1], bad])
        log, metrics = run_scenario(dataclasses.replace(Scenario(), duration=0.01))
        assert metrics.abort == {"reason": "NonFiniteError", "t": 0.0,
                                 "detail": "state became non-finite during the step at t=0.000000 s"}
        assert len(log) == 1

    def test_clamp_events_count_every_rk4_stage(self, monkeypatch):
        # A 20 rad/s initial roll rate saturates the mixer.  clamp_events
        # counts every evaluation whose applied (second-pass) mix clamped,
        # at all four RK4 stages, not only at the logged first stage.
        mix = engine.mix_inputs_to_rotor_speeds
        clamped = []

        def recording_mix(params, u):
            result = mix(params, u)
            clamped.append(result.clamped)
            return result

        monkeypatch.setattr(engine, "mix_inputs_to_rotor_speeds", recording_mix)
        sc = scenario_from_dict({"initial_state": [0.0, 20.0] + [0.0] * 10,
                                 "sim": {"duration": 0.1}})
        log, metrics = run_scenario(sc)
        assert metrics.completed
        applied = clamped[1::2]  # two mixing passes per evaluation
        assert len(applied) == 4 * (len(log) - 1) + 1
        assert metrics.clamp_events == sum(applied)
        assert metrics.clamp_events > sum(applied[::4])  # the logged stages alone


class TestResidualSpeedPasses:
    def test_third_pass_gap_stays_within_the_stated_bound(self, monkeypatch):
        # The engine docstring states what a third residual-speed pass would
        # change over the first 10 s of the stock mission: up to 2.1e-9 in
        # roll, 4.6e-8 in pitch, 7.9e-8 rad/s in the residual speed.  Those
        # peaks come in the first 0.05 s.  At every evaluation the
        # second-pass torques are evaluated again at the residual speed they
        # mixed, which is what a third pass would apply.
        torque, speed = engine.attitude_torque, engine.residual_speed
        calls, evaluations = [], []
        gaps = {"roll": 0.0, "pitch": 0.0, "yaw": 0.0}

        def recording_torque(*args):
            value = torque(*args)
            calls.append((args, value))
            return value

        def recording_speed(w):
            omega = speed(w)
            if len(calls) == 6:  # both passes done; args[7] is the residual speed
                for args, value in calls[3:]:
                    again = torque(*args[:7], omega, *args[8:])
                    gaps[args[0]] = max(gaps[args[0]], abs(again - value))
                calls.clear()
                evaluations.append(omega)
            return omega

        monkeypatch.setattr(engine, "attitude_torque", recording_torque)
        monkeypatch.setattr(engine, "residual_speed", recording_speed)
        log, metrics = run_scenario(dataclasses.replace(Scenario(), duration=0.1))
        assert metrics.completed
        assert len(evaluations) == 4 * (len(log) - 1) + 1
        assert 0.0 < gaps["roll"] <= 5e-9
        assert 0.0 < gaps["pitch"] <= 1e-7
        assert gaps["yaw"] == 0.0  # no gyroscopic term in yaw


def synthetic_log(**column_values):
    n = max(len(v) for v in column_values.values())
    data = np.zeros((n, len(COLUMNS)))
    data[:, 0] = np.arange(n) * 0.1
    for name, values in column_values.items():
        data[:, COLUMNS.index(name)] = values
    return SimLog(columns=COLUMNS, data=data)


class TestComputeRmse:
    def test_constant_error(self):
        log = synthetic_log(e_x=np.full(100, 0.1))
        m = compute_rmse(log, (0.0, 9.9))
        assert m.tracking_rmse["x"] == pytest.approx(0.1)
        assert m.peak_abs_error["x"] == pytest.approx(0.1)

    def test_zero_error(self):
        log = synthetic_log(e_z=np.zeros(50))
        m = compute_rmse(log, (0.0, 4.9))
        assert m.tracking_rmse["z"] == 0.0
        assert m.settle_time["z"] == 0.0
        # settled from the first sample in the window, not from the window's start
        assert compute_rmse(log, (0.05, 4.9)).settle_time["z"] == 0.1

    def test_alternating_unit_error(self):
        log = synthetic_log(e_y=np.array([1.0, -1.0] * 50))
        m = compute_rmse(log, (0.0, 9.9))
        assert m.tracking_rmse["y"] == pytest.approx(1.0)

    def test_estimation_rmse_uses_estimate_minus_truth(self):
        log = synthetic_log(xhat7=np.full(10, 1.5), x7=np.full(10, 1.0))
        m = compute_rmse(log, (0.0, 0.9))
        assert m.estimation_rmse["x"] == pytest.approx(0.5)

    def test_window_restriction(self):
        e = np.zeros(100)
        e[:50] = 2.0
        log = synthetic_log(e_x=e)
        m = compute_rmse(log, (5.0, 9.9))
        assert m.tracking_rmse["x"] == 0.0

    def test_settle_time(self):
        e = np.concatenate([np.full(50, 1.0), np.full(50, 0.01)])
        log = synthetic_log(e_x=e)
        m = compute_rmse(log, (0.0, 9.9))
        assert m.settle_time["x"] == pytest.approx(5.0)

    def test_never_settles_is_none(self):
        log = synthetic_log(e_x=np.linspace(0.0, 1.0, 60))
        m = compute_rmse(log, (0.0, 5.9))
        assert m.settle_time["x"] is None

    def test_non_finite_error_never_settles(self):
        e = np.array([1.0, 0.5, math.nan, 0.2, 0.01])
        log = synthetic_log(e_x=e, e_y=np.where(np.isnan(e), math.inf, e))
        m = compute_rmse(log, (0.0, 0.4))
        assert math.isnan(m.tracking_rmse["x"]) and math.isnan(m.peak_abs_error["x"])
        assert m.tracking_rmse["y"] == m.peak_abs_error["y"] == math.inf
        assert m.settle_time["x"] is None and m.settle_time["y"] is None
        assert m.settle_time["z"] == 0.0

    def test_overflowing_error_is_inf_without_warnings(self):
        # e * e overflows; the suite turns numpy's warning into an error.
        m = compute_rmse(synthetic_log(e_x=np.full(3, 1e200)), (0.0, 0.2))
        assert m.tracking_rmse["x"] == math.inf
        assert m.peak_abs_error["x"] == 1e200
        assert m.settle_time["x"] is None

    def test_empty_window_rejected(self):
        log = synthetic_log(e_x=np.zeros(10))
        with pytest.raises(ValueError):
            compute_rmse(log, (100.0, 200.0))


class TestTraceIo:
    def test_empty_log_writes_header_only(self, tmp_path):
        log = SimLog(columns=COLUMNS, data=np.empty((0, len(COLUMNS))))
        path = tmp_path / "trace.csv"
        write_trace(log, path)
        text = path.read_text()
        assert text == ",".join(COLUMNS) + "\n"

    def test_zero_columns_write_an_empty_line_per_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(SimLog(columns=(), data=np.empty((3, 0))), path)
        assert path.read_bytes() == b"\n" * 4

    def test_header_only_trace_reads_back_empty(self, tmp_path):
        # A free-fall demand aborts at t = 0, before the first row.
        log, metrics = run_scenario(scenario_from_dict({
            "trajectory": {"type": "waypoints", "points": [[0.0, 0.0, 0.0, -100.0]]},
            "sim": {"duration": 1.0}}))
        assert not metrics.completed
        path = tmp_path / "trace.csv"
        write_trace(log, path)
        back = read_trace(path)
        assert back.columns == COLUMNS
        assert back.data.shape == (0, len(COLUMNS))

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"")
        with pytest.raises(SimulationError, match="no header line"):
            read_trace(path)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SimulationError, match="cannot read trace"):
            read_trace(path)

    def test_undecodable_body_line(self, tmp_path):
        # The bad byte lies beyond the first read of the file, so it decodes inside loadtxt.
        path = tmp_path / "trace.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 10_000 + b"\xff\n")
        with pytest.raises(SimulationError, match="cannot read trace"):
            read_trace(path)

    def test_unencodable_column_name_leaves_no_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        with pytest.raises(SimulationError, match="cannot write trace to"):
            write_trace(SimLog(columns=("t", "\udcff"), data=np.ones((1, 2))), path)
        assert not path.exists()

    def test_read_peaks_near_the_table_size(self, tmp_path):
        # The body streams into the parser: no list of lines is held beside the table.
        data = np.random.default_rng(0).standard_normal((1001, len(COLUMNS)))
        path = tmp_path / "trace.csv"
        write_trace(SimLog(columns=COLUMNS, data=data), path)
        read_trace(path)
        tracemalloc.start()
        try:
            read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * data.nbytes

    def test_special_values_round_trip(self, tmp_path):
        data = np.zeros((2, len(COLUMNS)))
        data[0, :6] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3]
        path = tmp_path / "trace.csv"
        write_trace(SimLog(columns=COLUMNS, data=data), path)
        line = path.read_text().splitlines()[1]
        assert line.startswith("nan,inf,-inf,-0,4.94065646e-324,0.333333333,0,")
        back = read_trace(path).data
        want = np.array([[float(f"{v:.9g}") for v in row] for row in data])
        assert np.array_equal(back, want, equal_nan=True)
        assert math.copysign(1.0, back[0, 3]) == -1.0

    # Row counts around the writer's block size, each written at three decimations (the
    # last beyond the row count) from C-ordered, Fortran-ordered and column-sliced data.
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("decimation", [1, 7, "beyond"])
    @pytest.mark.parametrize("n", [0, 1, engine._TRACE_BLOCK_ROWS - 1, engine._TRACE_BLOCK_ROWS,
                                   engine._TRACE_BLOCK_ROWS + 1, 3 * engine._TRACE_BLOCK_ROWS + 5])
    def test_bytes_equal_the_savetxt_oracle(self, tmp_path, n, decimation, layout):
        rng = np.random.default_rng(n)
        wide = 10.0 ** rng.uniform(-320, 308, (n, 2 * len(COLUMNS)))
        wide *= rng.choice([-1.0, 1.0], wide.shape)
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 1 / 3]
        for i, v in enumerate(specials):
            wide[i::len(specials), i::len(specials)] = v
        data = {"C": np.ascontiguousarray(wide[:, :len(COLUMNS)]),
                "F": np.asfortranarray(wide[:, :len(COLUMNS)]), "sliced": wide[:, ::2]}[layout]
        d = n + 1 if decimation == "beyond" else decimation
        path, oracle = tmp_path / "trace.csv", tmp_path / "oracle.csv"
        write_trace(SimLog(columns=COLUMNS, data=data), path, decimation=d)
        with open(oracle, "w", newline="") as fh:
            np.savetxt(fh, data[::d], fmt="%.9g", delimiter=",", header=",".join(COLUMNS),
                       comments="")
        assert path.read_bytes() == oracle.read_bytes()

    @staticmethod
    def savetxt_bytes(data, columns):
        buf = io.BytesIO()
        np.savetxt(buf, data, fmt="%.9g", delimiter=",", header=",".join(columns), comments="")
        return buf.getvalue()

    @staticmethod
    def adversarial_values():
        """Values at every layout and every edge of write_trace's table path."""
        values = []
        for X in range(-5, 10):  # every exponent layout and nd = 1..9 significant digits
            for nd in range(1, 10):
                values += [float(f"{'123456789'[:nd]}e{X - nd + 1}"),
                           float(f"-{'987654321'[:nd]}e{X - nd + 1}")]
        for k in range(-290, 290, 3):  # decimal ties, exact or nearest, and the 9-digit rollover
            values += [float(f"999999999.5e{k}"), float(f"123456788.5e{k}"),
                       float(f"123456789.5e{k}"), float(f"100000000.5e{k}")]
        values += [100000000.5, 123456788.5, 999999999.5, 1234567895.0, 99999999950.0, 0.5, 2.5]
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])  # powers of ten +- 1 ulp
        for t in (tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)):
            values += list(t) + list(-t)
        edges = np.array([1e-280, 1e280])
        for t in (edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)):
            values += list(t) + list(-t)
        values += [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 2.2250738585072014e-308,
                   0.0, -0.0, math.nan, -math.nan, np.copysign(math.nan, -1.0), math.inf,
                   -math.inf, 1.7976931348623157e308]
        return np.array(values)

    @pytest.mark.parametrize("width", [1, 7, len(COLUMNS)])
    def test_adversarial_values_equal_the_savetxt_oracle(self, tmp_path, width):
        values = self.adversarial_values()
        data = np.resize(values, (-(-len(values) // width), width))
        columns = tuple(f"c{i}" for i in range(width))
        path = tmp_path / "trace.csv"
        write_trace(SimLog(columns=columns, data=data), path)
        assert path.read_bytes() == self.savetxt_bytes(data, columns)

    @pytest.mark.parametrize("data", [
        np.array([[2**53 + 1, 2**63 - 1], [-2**63, 123456789012345678]], dtype=np.int64),
        np.array([[True, False], [False, True]]),
        np.random.default_rng(3).standard_normal((70, 5)).astype(np.float32) * 1e5,
    ], ids=["int64", "bool", "float32"])
    def test_other_dtypes_equal_the_savetxt_oracle(self, tmp_path, data):
        columns = tuple(f"c{i}" for i in range(data.shape[1]))
        path = tmp_path / "trace.csv"
        write_trace(SimLog(columns=columns, data=data), path)
        assert path.read_bytes() == self.savetxt_bytes(data, columns)

    # Any float64 table of 0-200 rows and 1-8 columns, its values drawn as floats or as raw
    # 64-bit patterns.
    SHAPES = st.tuples(st.integers(0, 200), st.integers(1, 8))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        arrays(np.float64, SHAPES,
               elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)),
        SHAPES.flatmap(lambda shape: st.binary(min_size=8 * shape[0] * shape[1],
                                               max_size=8 * shape[0] * shape[1]).map(
            lambda raw: np.frombuffer(raw, "<f8").reshape(shape)))))
    def test_any_table_equals_the_savetxt_oracle(self, tmp_path_factory, data):
        columns = tuple(f"c{i}" for i in range(data.shape[1]))
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_trace(SimLog(columns=columns, data=data), path)
        assert path.read_bytes() == self.savetxt_bytes(data, columns)

    def test_scaling_error_is_within_the_stated_bound(self):
        # write_trace's docstring: one scaling puts s within 2.3e-7 of the exact s*.
        rng = np.random.default_rng(5)
        a = np.concatenate([10.0 ** rng.uniform(-280, 280, 3000), 10.0 ** rng.uniform(8, 9, 500),
                            np.nextafter(np.array([1e-280, 1e280]), [np.inf, 0.0])])
        errors = []
        for v in a.tolist():
            e = math.floor(math.log10(v))
            s = v * traceformat._POW10[traceformat._EXP_MAX - e]
            if 1e8 <= s < 1e9:  # else % formats v
                errors.append(abs(Fraction(s) - Fraction(v) * Fraction(10) ** (8 - e)))
        assert len(errors) > 3400
        assert max(errors) < 2.3e-7

    def test_formatter_tables_stay_small(self):
        # The formatter's lookup tables, built at import, hold at most 256 kB.
        tables = [v for v in vars(traceformat).values() if isinstance(v, np.ndarray)]
        assert sum(t.nbytes for t in tables) <= 256_000

    def test_utf8_under_the_c_locale(self, tmp_path):
        # A column name outside ASCII is written as UTF-8, which read_trace decodes.
        src = str(pathlib.Path(engine.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, numpy as np\n"
                "from quadtrack import SimLog, read_trace, write_trace\n"
                "cols = ('t', '\\u03b8')\n"
                "write_trace(SimLog(columns=cols, data=np.ones((2, 2))), sys.argv[1])\n"
                "print(read_trace(sys.argv[1]).columns == cols)\n")
        path = tmp_path / "trace.csv"
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"
        assert path.read_bytes() == "t,\u03b8\n1,1\n1,1\n".encode("utf-8")

    def test_write_read_write_is_stable(self, tmp_path):
        sc = dataclasses.replace(Scenario(), duration=0.1)
        log, _ = run_scenario(sc)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trace(log, p1, decimation=10)
        back = read_trace(p1)
        assert back.columns == COLUMNS
        write_trace(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_decimation_below_one_is_rejected(self, tmp_path):
        log = SimLog(columns=COLUMNS, data=np.zeros((3, len(COLUMNS))))
        with pytest.raises(ValueError, match="decimation must be >= 1"):
            write_trace(log, tmp_path / "trace.csv", decimation=0)
        assert not (tmp_path / "trace.csv").exists()

    def test_decimation(self, tmp_path):
        sc = dataclasses.replace(Scenario(), duration=0.1)
        log, _ = run_scenario(sc)
        path = tmp_path / "trace.csv"
        write_trace(log, path, decimation=10)
        assert len(read_trace(path)) == 11

    # Bodies under the header "a,b,c" that are not a table of three columns.
    @pytest.mark.parametrize("body", [
        "1,2,3\n4,5\n6,7,8\n",      # a ragged line
        "1,2,3\n   \n4,5,6\n",      # a whitespace-only line
        "\n\n",                     # blank lines only
        "1,2\n3,4\n",               # fewer columns than the header
    ], ids=["ragged", "whitespace", "blank", "narrow"])
    def test_malformed_body_raises_simulation_error(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c\n" + body)
        with pytest.raises(SimulationError):
            read_trace(path)


class TestSummary:
    def test_keys_are_the_header_and_the_metrics_fields(self, tmp_path):
        sc = dataclasses.replace(Scenario(), duration=0.01)
        _, metrics = run_scenario(sc)
        path = tmp_path / "summary.json"
        payload = write_summary(metrics, sc, path)
        summary = json.loads(path.read_text())
        assert set(summary) == {
            "schema_version", "seed", "scenario_digest", "scenario",
            "tracking_rmse", "estimation_rmse", "peak_abs_error", "settle_time", "window",
            "clamp_events", "completed", "abort",
        }
        header = {"schema_version", "seed", "scenario_digest", "scenario"}
        assert set(summary) == header | {f.name for f in dataclasses.fields(Metrics)}
        assert summary["schema_version"] == 5
        assert summary["window"] == [0.0, 0.01] and summary["abort"] is None
        assert json.loads(json.dumps(payload)) == summary

    def test_missing_directory_raises_simulation_error(self, tmp_path):
        sc = dataclasses.replace(Scenario(), duration=0.01)
        _, metrics = run_scenario(sc)
        with pytest.raises(SimulationError, match="cannot write summary to"):
            write_summary(metrics, sc, tmp_path / "missing" / "summary.json")
