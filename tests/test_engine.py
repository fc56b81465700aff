import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from quadtrack import (
    CHANNELS,
    COLUMNS,
    ClosedLoop,
    ControlInputs,
    Metrics,
    NonFiniteError,
    QuadrotorParams,
    RotorSpeeds,
    Scenario,
    SimLog,
    SimulationError,
    acceleration_from_attitude,
    attitude_coupling,
    attitude_input_gain,
    compute_rmse,
    do_derivative,
    hgo_derivative,
    read_trace,
    residual_speed,
    rk4_step,
    run_scenario,
    scenario_from_dict,
    state_derivative,
    write_summary,
    write_trace,
)
from quadtrack import engine
from quadtrack.engine import PLANT_DIM, RIG_SIZE, STATE_DIM


class TestRk4:
    def test_constant_state(self):
        assert rk4_step(lambda t, y: 0.0, 3.5, 0.0, 0.1) == 3.5

    def test_exponential_one_step(self):
        y1 = rk4_step(lambda t, y: y, 1.0, 0.0, 0.1)
        assert abs(y1 - math.exp(0.1)) < 3e-7

    def test_fourth_order_convergence(self):
        def global_error(h):
            y = 1.0
            for i in range(int(round(1.0 / h))):
                y = rk4_step(lambda t, s: s, y, i * h, h)
            return abs(y - math.e)

        ratio = global_error(1e-2) / global_error(5e-3)
        assert 14.0 <= ratio <= 18.0

    def test_vector_state(self):
        # harmonic oscillator energy is conserved to O(dt^4) per period
        f = lambda t, s: np.array([s[1], -s[0]])
        s = np.array([1.0, 0.0])
        for i in range(1000):
            s = rk4_step(f, s, i * 1e-3, 1e-3)
        assert s[0] == pytest.approx(math.cos(1.0), abs=1e-10)

    def test_accepts_precomputed_first_stage(self):
        f = lambda t, y: y
        assert rk4_step(f, 1.0, 0.0, 0.1, k1=f(0.0, 1.0)) == rk4_step(f, 1.0, 0.0, 0.1)


def hover_scenario(duration=0.2):
    return scenario_from_dict({
        "trajectory": {"type": "waypoints", "points": [[0.0, 0.5, -0.5, 1.0]]},
        "disturbances": {ch: {"type": "none"} for ch in
                         ("roll", "pitch", "yaw", "x", "y", "z")},
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
        for i in range(200):
            a = rk4_step(loop.derivative, a, i * sc.dt, sc.dt)
        assert np.all(np.abs(loop.derivative(0.2, a)[:12]) < 1e-6)

    def test_position_do_toggle_is_transparent_when_estimate_is_zero(self):
        # dhat = gamma + lam*xhat2 vanishes on this state, so removing the
        # compensation term cannot change any derivative entry.
        sc_on = hover_scenario()
        sc_off = scenario_from_dict({
            **{"toggles": {"position_do": False}},
            "trajectory": sc_on.trajectory,
            "disturbances": {ch: {"type": "none"} for ch in
                             ("roll", "pitch", "yaw", "x", "y", "z")},
            "initial_state": list(sc_on.initial_state),
            "sim": {"duration": 0.2},
        })
        a = ClosedLoop(sc_on).initial_state()
        rng = np.random.default_rng(31)
        a[:12] += rng.normal(0.0, 0.05, 12)
        for ch in ("x", "y", "z"):
            base = PLANT_DIM + RIG_SIZE * CHANNELS.index(ch)
            a[base:base + 5] += rng.normal(0.0, 0.05, 5)
            lam = sc_on.gains[ch].lam
            a[base + 5] = -lam * a[base + 4]  # gamma forcing dhat == 0
        d_on = ClosedLoop(sc_on).derivative(0.05, a.copy())
        d_off = ClosedLoop(sc_off).derivative(0.05, a.copy())
        assert np.array_equal(d_on, d_off)

    @staticmethod
    def oracle_pair():
        """Stock loops with estimated and with true-state feedback, and a random
        state whose HGO estimates equal the true outputs and rates."""
        sc = dataclasses.replace(Scenario(), duration=0.2)
        oracle = dataclasses.replace(
            sc, toggles=dataclasses.replace(sc.toggles, true_state_feedback=True))
        rng = np.random.default_rng(5)
        a = ClosedLoop(sc).initial_state()
        a += rng.normal(0.0, 0.05, a.shape)
        for i in range(len(CHANNELS)):
            base = PLANT_DIM + RIG_SIZE * i
            a[base + 3:base + 5] = a[2 * i:2 * i + 2]
        return ClosedLoop(sc), ClosedLoop(oracle), a

    def test_oracle_feedback_is_transparent_when_estimates_are_exact(self):
        loop, oracle, a = self.oracle_pair()
        assert np.array_equal(loop.derivative(0.05, a), oracle.derivative(0.05, a))

    def test_oracle_feedback_reads_true_states(self):
        loop, oracle, a = self.oracle_pair()
        for i in range(len(CHANNELS)):
            base = PLANT_DIM + RIG_SIZE * i
            a[base + 3:base + 5] += 0.01
        # the control laws read different feedback, so the plant sees other inputs
        d_est, d_true = loop.derivative(0.05, a), oracle.derivative(0.05, a)
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

    def test_two_finite_entries_whose_sum_overflows_pass_the_state_check(self):
        # Under estimated feedback only the plant rows read the true
        # velocities, so these entries reach no control leaf.
        loop = ClosedLoop(hover_scenario())
        a = loop.initial_state()
        a[7] = a[9] = 1e308  # the x and y velocities
        assert np.isfinite(loop.derivative(0.0, a)).all()

    def test_finite_difference_consistency(self):
        # (a' - a)/dt agrees with the midpoint derivative to O(dt^2) on a
        # smooth segment (early transient, no disturbances, no sign flips).
        sc = scenario_from_dict({
            "disturbances": {ch: {"type": "none"} for ch in
                             ("roll", "pitch", "yaw", "x", "y", "z")},
            "sim": {"duration": 1.0},
        })
        loop = ClosedLoop(sc)
        a = loop.initial_state()
        t = 0.0
        for i in range(200):
            a = rk4_step(loop.derivative, a, t, sc.dt)
            t += sc.dt

        def fd_error(dt):
            a2 = rk4_step(loop.derivative, a, t, dt)
            fd = (a2 - a) / dt
            mid = loop.derivative(t + 0.5 * dt, 0.5 * (a + a2))
            return np.linalg.norm(fd - mid)

        e1, e2 = fd_error(1e-3), fd_error(5e-4)
        assert e1 / e2 > 3.0  # second-order scaling (ratio ~4)

    def test_free_fall_descends_monotonically(self):
        # plant-only sanity: zero inputs, vertical velocity only decreases
        p = QuadrotorParams()
        u = ControlInputs(0.0, 0.0, 0.0, 0.0)
        f = lambda t, s: state_derivative(p, s, u, 0.0)
        s = np.zeros(12)
        vz_prev = 0.0
        for i in range(500):
            s = rk4_step(f, s, i * 1e-3, 1e-3)
            assert s[11] < vz_prev
            vz_prev = s[11]


class TestObserverRows:
    """Every rig's HGO and DO rows of signals() rebuilt from the public model functions."""

    @staticmethod
    def model(params, outputs, rates, omega_r, up):
        """The six rate-row model terms, inputs left out, in CHANNELS order."""
        others = {"roll": (1, 2), "pitch": (0, 2), "yaw": (0, 1)}
        return ([attitude_coupling(axis, params, rates[j], rates[k], omega_r)
                 for axis, (j, k) in others.items()]
                + list(acceleration_from_attitude(params, outputs[0], outputs[1], outputs[2], up)))

    @pytest.mark.parametrize("pinned", [None, 40.0], ids=["two_pass", "pinned"])
    @pytest.mark.parametrize("oracle", [False, True], ids=["estimates", "oracle"])
    def test_hgo_reads_estimates_and_do_reads_feedback(self, oracle, pinned):
        stock = Scenario()
        sc = dataclasses.replace(
            stock, duration=1.0,
            params=dataclasses.replace(stock.params, fixed_residual_speed=pinned),
            toggles=dataclasses.replace(stock.toggles, true_state_feedback=oracle))
        loop, params = ClosedLoop(sc), sc.params
        col = {name: i for i, name in enumerate(COLUMNS)}
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = (loop.initial_state() + rng.normal(0.0, 0.1, STATE_DIM)).tolist()
            deriv, row = loop.signals(rng.uniform(0.0, sc.duration), a)
            up, *torques = (row[col[name]] for name in ("Up", "Uphi", "Utheta", "Upsi"))
            omega_r = residual_speed(params, RotorSpeeds(*(row[col[f"w{k}"]] for k in range(1, 5))))
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

    def test_fixed_residual_speed_mode_runs(self):
        sc = scenario_from_dict({
            "params": {"fixed_residual_speed": 5.0},
            "sim": {"duration": 0.3},
        })
        log, metrics = run_scenario(sc)
        assert metrics.completed


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

        def recording_speed(params, w):
            omega = speed(params, w)
            if len(calls) == 6:  # both passes done; args[10] is the residual speed
                for args, value in calls[3:]:
                    again = torque(*args[:10], omega, *args[11:])
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
        assert summary["schema_version"] == 4
        assert summary["window"] == [0.0, 0.01] and summary["abort"] is None
        assert json.loads(json.dumps(payload)) == summary
