import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtrack import (
    DenominatorTooSmallError,
    QuadrotorParams,
    ScenarioError,
    acceleration_from_attitude,
    extract_thrust_and_attitude,
    position_virtual_control,
    reference_trajectory,
    scenario_from_dict,
    waypoint_trajectory,
)

PARAMS = QuadrotorParams()


class TestVirtualControlLaw:
    def test_zero(self):
        assert position_virtual_control(5.0, 0.05, 0.0, 0.0, 0.1, 0.1, 0.0, 0.0) == 0.0

    def test_rate_error_gain(self):
        assert position_virtual_control(5.0, 0.05, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0) == pytest.approx(-1.0)

    def test_pure_disturbance_cancellation(self):
        assert position_virtual_control(5.0, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5) == pytest.approx(-0.5)


class TestThrustAttitudeExtraction:
    def test_level_hover(self):
        sp = extract_thrust_and_attitude(PARAMS, 0.0, 0.0, 0.0, 0.0)
        assert sp.phi_des == 0.0 and sp.theta_des == 0.0
        assert sp.up == pytest.approx(6.3765, abs=1e-8)

    def test_forward_acceleration(self):
        sp = extract_thrust_and_attitude(PARAMS, PARAMS.g, 0.0, 0.0, 0.0)
        assert sp.theta_des == pytest.approx(math.pi / 4)
        assert sp.phi_des == pytest.approx(0.0, abs=1e-15)
        assert sp.up == pytest.approx(PARAMS.m * PARAMS.g * math.sqrt(2), rel=1e-9)
        assert sp.up == pytest.approx(9.0177, abs=2e-4)

    def test_round_trip_against_forward_model(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            ux, uy = rng.uniform(-5.0, 5.0, 2)
            uz = rng.uniform(-PARAMS.g + 0.5, 10.0)
            psi = rng.uniform(-math.pi, math.pi)
            sp = extract_thrust_and_attitude(PARAMS, ux, uy, uz, psi)
            ax, ay, az = acceleration_from_attitude(PARAMS, sp.phi_des, sp.theta_des,
                                                    psi, sp.up)
            assert ax == pytest.approx(ux, rel=1e-9, abs=1e-9)
            assert ay == pytest.approx(uy, rel=1e-9, abs=1e-9)
            assert az == pytest.approx(uz, rel=1e-9, abs=1e-9)

    def test_angles_always_inside_validity_range(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            sp = extract_thrust_and_attitude(
                PARAMS, rng.uniform(-50, 50), rng.uniform(-50, 50),
                rng.uniform(-PARAMS.g + 0.2, 50), rng.uniform(-math.pi, math.pi))
            assert abs(sp.phi_des) < math.pi / 2
            assert abs(sp.theta_des) < math.pi / 2
            assert sp.up >= 0.0

    def test_thrust_increases_with_vertical_demand(self):
        ups = [extract_thrust_and_attitude(PARAMS, 1.0, -2.0, uz, 0.3).up
               for uz in np.linspace(-5.0, 10.0, 40)]
        assert all(a < b for a, b in zip(ups, ups[1:]))

    def test_free_fall_guard(self):
        with pytest.raises(DenominatorTooSmallError):
            extract_thrust_and_attitude(PARAMS, 0.0, 0.0, -PARAMS.g, 0.0)
        with pytest.raises(DenominatorTooSmallError):
            extract_thrust_and_attitude(PARAMS, 1.0, 1.0, -PARAMS.g + 0.05, 0.0)


class TestReferenceTrajectory:
    def test_start_point(self):
        assert reference_trajectory(0.0) == pytest.approx((0.0, 2.0, 1.0))

    def test_half_circle(self):
        x, y, z = reference_trajectory(15.0 * math.pi)
        assert x == pytest.approx(6.0)
        assert y == pytest.approx(2.0)
        assert z == pytest.approx(1.0 + 1.5 * math.pi)
        assert z == pytest.approx(5.7124, abs=1e-4)

    def test_mission_endpoint(self):
        x, y, z = reference_trajectory(120.0)
        assert x == pytest.approx(3.0 - 3.0 * math.cos(8.0))
        assert y == pytest.approx(2.0 + 3.0 * math.sin(8.0))
        assert z == pytest.approx(13.0)

    def test_circle_radius_exact(self):
        for t in np.linspace(0.0, 200.0, 500):
            x, y, _ = reference_trajectory(t)
            assert (x - 3.0) ** 2 + (y - 2.0) ** 2 == pytest.approx(9.0, rel=1e-12)

    def test_climb_rate_exact(self):
        for t in (0.0, 7.3, 50.0, 119.9):
            assert reference_trajectory(t)[2] == pytest.approx(1.0 + 0.1 * t, rel=1e-15)


class TestWaypointTrajectory:
    def test_linear_interpolation_and_end_hold(self):
        traj = waypoint_trajectory([[0.0, 0.0, 0.0, 1.0], [10.0, 2.0, -4.0, 3.0]])
        assert traj(5.0) == pytest.approx((1.0, -2.0, 2.0))
        assert traj(25.0) == pytest.approx((2.0, -4.0, 3.0))
        assert traj(-1.0) == pytest.approx((0.0, 0.0, 1.0))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_np_interp_exactly(self, data):
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        times = sorted(data.draw(st.lists(coord, min_size=1, max_size=6, unique=True)))
        points = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=len(times),
                                    max_size=len(times)))
        table = np.array([[t, *p] for t, p in zip(times, points)])
        inside = st.floats(times[0], times[-1])
        outside = st.floats(1e-9, 1e3).flatmap(
            lambda h: st.sampled_from([times[0] - h, times[-1] + h]))
        queries = data.draw(st.lists(inside | st.sampled_from(times) | outside,
                                     min_size=1, max_size=20))
        traj = waypoint_trajectory(table.tolist())
        for t in queries:
            want = tuple(float(np.interp(t, table[:, 0], table[:, k])) for k in (1, 2, 3))
            assert traj(t) == want, t

    @pytest.mark.parametrize("rows", [
        # the time span overflows (np.interp's first try gives 0 * inf = NaN)
        [[-1e308, 0.0, 5.0, -1.0], [1e308, 0.0, 1e308, -1e308]],
        # the span and the x difference overflow (np.interp's slope is inf / inf)
        [[-1e308, -1e308, 0.0, 0.0], [1e308, 1e308, 1.0, 0.0]],
        # only the z difference overflows
        [[0.0, 0.0, 0.0, -1e308], [1.0, 0.0, 0.0, 1e308]],
    ])
    def test_rejects_segments_that_overflow(self, rows):
        with pytest.raises(ValueError, match="must be finite"):
            waypoint_trajectory(rows)
        with pytest.raises(ScenarioError, match="bad waypoints"):
            scenario_from_dict({"trajectory": {"type": "waypoints", "points": rows}})

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            waypoint_trajectory([])
        with pytest.raises(ValueError):
            waypoint_trajectory([[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError):
            waypoint_trajectory([[0.0, 0, 0, 0], [0.0, 1, 1, 1]])
