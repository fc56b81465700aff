import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtrack import (
    CHANNELS,
    BandLimitedNoise,
    GaussianNoise,
    NoDisturbance,
    Ramp,
    Sinusoid,
    Step,
    UniformNoise,
    scenario_from_dict,
)
from quadtrack import disturbances, engine
from quadtrack.disturbances import make_generator, noise_boundary_values, noise_draw_size
from quadtrack.engine import ClosedLoop
from quadtrack.scenario import STEP_COUNT_RTOL


class TestAnalyticShapes:
    def test_sinusoid_zero_at_origin(self):
        gen = make_generator(Sinusoid(amplitude=1.0, omega=0.1), 0, 120.0)
        assert gen.value(0.0) == 0.0
        assert gen.value(10.0) == pytest.approx(math.sin(1.0))

    def test_step_before_and_after_onset(self):
        gen = make_generator(Step(value=1.0, onset=50.0), 0, 120.0)
        assert gen.value(49.0) == 0.0
        assert gen.value(50.0) == 1.0
        assert gen.value(51.0) == 1.0

    def test_ramp_window_and_cutoff(self):
        gen = make_generator(Ramp(offset=0.1, slope=0.01, end=100.0), 0, 120.0)
        assert gen.value(0.0) == pytest.approx(0.1)
        assert gen.value(100.0) == pytest.approx(1.1)
        assert gen.value(100.001) == 0.0

    def test_ramp_hold_variant(self):
        gen = make_generator(Ramp(offset=0.1, slope=0.01, end=100.0, hold_after=True),
                             0, 120.0)
        assert gen.value(110.0) == pytest.approx(1.1)

    def test_none(self):
        gen = make_generator(NoDisturbance(), 0, 120.0)
        assert gen.value(12.3) == 0.0


_HOLDS = st.floats(1e-3, 0.5)


class TestSampledNoise:
    def test_zero_sigma_gaussian_is_identically_zero(self):
        gen = make_generator(GaussianNoise(0.0, hold=1.0), 0, 60.0)
        assert all(gen.value(t) == 0.0 for t in np.linspace(0, 60, 200))

    def test_same_seed_identical_bitwise(self):
        spec = GaussianNoise(0.1, hold=2.0, seed=1234)
        g1 = make_generator(spec, 0, 60.0)
        g2 = make_generator(spec, 0, 60.0)
        ts = np.linspace(0.0, 60.0, 500)
        assert [g1.value(t) for t in ts] == [g2.value(t) for t in ts]

    def test_different_seeds_differ(self):
        a = make_generator(GaussianNoise(0.1, hold=2.0, seed=1), 0, 60.0)
        b = make_generator(GaussianNoise(0.1, hold=2.0, seed=2), 0, 60.0)
        assert a.value(1.0) != b.value(1.0)

    def test_constant_within_hold_interval(self):
        gen = make_generator(GaussianNoise(1.0, hold=15.0, seed=7), 0, 120.0)
        for k in range(7):
            ref = gen.value(15.0 * k + 1e-6)
            for frac in (0.1, 0.33, 0.5, 0.9, 0.999):
                assert gen.value(15.0 * (k + frac)) == ref

    def test_reevaluation_is_pure(self):
        gen = make_generator(UniformNoise(-1.0, 1.0, hold=1.0, seed=3), 0, 30.0)
        v1 = gen.value(17.25)
        for t in (29.0, 0.0, 17.25, 5.5, 17.25):
            gen.value(t)
        assert gen.value(17.25) == v1

    def test_a_read_past_the_drawn_table_raises(self):
        # 10 s held for 1 s draws the boundaries 0..10 s; the last value holds to 11 s.
        gen = make_generator(GaussianNoise(1.0, hold=1.0, seed=3), 0, 10.0)
        assert gen.value(10.999) == gen.value(10.0)
        for t in (11.0, -1e-9, -1.0):
            with pytest.raises(IndexError):
                gen.value(t)

    # The docstring's domain: every t in [0, horizon] reads a drawn value.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(horizon=st.floats(1e-3, 10.0), hold=_HOLDS, frac=st.floats(0.0, 1.0))
    def test_every_time_up_to_the_horizon_reads_a_drawn_value(self, horizon, hold, frac):
        gen = make_generator(GaussianNoise(1.0, hold=hold, seed=1), 0, horizon)
        for t in (0.0, frac * horizon, horizon):
            assert math.isfinite(gen.value(t))

    @pytest.mark.parametrize("build", [lambda: make_generator("gaussian", 0, 1.0),
                                       lambda: noise_boundary_values(Sinusoid(1.0, 1.0), 0, 3)],
                             ids=["make_generator", "noise_boundary_values"])
    def test_a_spec_of_no_known_kind_is_rejected(self, build):
        with pytest.raises(TypeError, match="unknown .* spec"):
            build()

    def test_gaussian_statistics(self):
        vals = noise_boundary_values(GaussianNoise(1.0, hold=1.0), 99, 100_000)
        assert abs(vals.mean()) < 3.0 / math.sqrt(100_000)
        assert vals.var() == pytest.approx(1.0, rel=0.05)

    def test_uniform_statistics(self):
        vals = noise_boundary_values(UniformNoise(-0.1, 0.1, hold=1.0), 12, 100_000)
        assert vals.min() >= -0.1 and vals.max() <= 0.1
        assert abs(vals.mean()) < 3 * (0.2 / math.sqrt(12)) / math.sqrt(100_000)

    def test_band_limited_variance_and_subsampling(self):
        # white inner sequence of variance power/inner_dt, held at the inner
        # rate and then sampled at the outer boundaries
        spec = BandLimitedNoise(power=1e-3, inner_dt=0.1, hold=1.0)
        vals = noise_boundary_values(spec, 5, 50_000)
        assert vals.var() == pytest.approx(1e-3 / 0.1, rel=0.05)
        # outer hold below the inner step repeats inner values
        vals_fast = noise_boundary_values(dataclasses.replace(spec, hold=0.05), 5, 10)
        assert vals_fast[0] == vals_fast[1]  # both inside the first inner step

    # A shorter draw with the same seed is a bitwise prefix of a longer one,
    # so a short run sees the noise of the start of a long run.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(spec=st.one_of(
               st.builds(GaussianNoise, st.floats(0.0, 10.0), hold=_HOLDS),
               st.builds(lambda bounds, hold: UniformNoise(*sorted(bounds), hold=hold),
                         st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2), _HOLDS),
               st.builds(BandLimitedNoise, st.floats(0.0, 10.0), st.floats(1e-3, 1.0),
                         hold=_HOLDS)),
           seed=st.integers(0, 2**32 - 1),
           counts=st.lists(st.integers(0, 300), min_size=2, max_size=2).map(sorted))
    def test_shorter_draw_is_a_prefix(self, spec, seed, counts):
        short, long = counts
        head = noise_boundary_values(spec, seed, short)
        assert head.tobytes() == noise_boundary_values(spec, seed, long)[:short].tobytes()


def _stage_times(sc):
    """Every time run_scenario reads the disturbances: each step's t, t + dt/2 and t + dt."""
    t = np.arange(int(round(sc.duration / sc.dt)) + 1) * sc.dt
    return np.concatenate([t, t[:-1] + 0.5 * sc.dt, t[:-1] + sc.dt])


def _noise(kind, hold, **fields):
    return {"type": "noise", "kind": kind, "hold": hold, **fields}


class TestDrawSize:
    def test_counts_the_boundaries_up_to_the_horizon(self):
        spec = BandLimitedNoise(power=1.0, inner_dt=0.01, hold=0.1)
        assert noise_draw_size(spec, 0.3) == (4.0, 31.0)
        assert noise_draw_size(spec, 0.29) == (3.0, 21.0)
        assert noise_draw_size(GaussianNoise(1.0, hold=0.1), 0.3) == (4.0, 4.0)
        # A hold past the horizon draws one value, not an inner sequence out to the next boundary.
        long_hold = BandLimitedNoise(power=1.0, inner_dt=1e-6, hold=1000.0)
        assert noise_draw_size(long_hold, 0.001) == (1.0, 1.0)

    def test_horizon_slack_is_twice_the_step_rule(self):
        # The slack covers the stage times the scenario's step rule admits; the two modules
        # cannot import each other, so this ties the constants.
        assert disturbances._HORIZON_SLACK == 2 * STEP_COUNT_RTOL

    def test_an_overflowing_count_is_inf(self):
        assert noise_draw_size(GaussianNoise(1.0, hold=5e-324), 1.0) == (math.inf, math.inf)
        tiny = BandLimitedNoise(power=1e-300, inner_dt=5e-324, hold=1e300)
        assert noise_draw_size(tiny, 1e300) == (2.0, math.inf)
        with pytest.raises(MemoryError):  # as for a size numpy refuses
            make_generator(GaussianNoise(1.0, hold=5e-324), 0, 1.0)

    # Every value a run reads equals the value drawn for floor(horizon / hold) + 2 boundaries,
    # one past the horizon, seeded by np.random.SeedSequence((seed, channel index)).  The third
    # scenario's duration is 1e-9 short of 37 steps, as the step rule admits, so its last stage
    # reads the boundary at 37 dt, past the duration.
    @pytest.mark.parametrize("raw", [
        {},
        {"sim": {"duration": 0.3, "seed": 11}, "disturbances": {
            "roll": _noise("band_limited", 0.1, power=1e-3, inner_dt=1e-3),
            "pitch": _noise("band_limited", 0.15, power=1e-2, inner_dt=0.03),
            "yaw": _noise("band_limited", 0.05, power=1e-3, inner_dt=0.1),
            "x": _noise("gaussian", 0.06, sigma=0.3),
            "y": _noise("uniform", 0.075, low=-1.0, high=0.5, seed=4),
            "z": _noise("band_limited", 0.3, power=1.0, inner_dt=0.07)}},
        {"sim": {"duration": 0.036999999963}, "disturbances": {
            "roll": _noise("gaussian", 0.007400000000000001, sigma=1.0),
            "yaw": _noise("band_limited", 0.007400000000000001, power=1e-3, inner_dt=1e-3)}},
    ], ids=["stock", "whole_holds", "step_rule_edge"])
    def test_every_stage_time_reads_a_value_the_old_rule_drew(self, monkeypatch, raw):
        built = []

        def recording(spec, seed, horizon):
            built.append(make_generator(spec, seed, horizon))
            return built[-1]

        monkeypatch.setattr(engine, "make_generator", recording)
        sc = scenario_from_dict(raw)
        ClosedLoop(sc)
        times = _stage_times(sc)
        for idx, (ch, gen) in enumerate(zip(CHANNELS, built)):
            spec = sc.disturbances[ch]
            if not isinstance(spec, disturbances.HELD_NOISE):
                continue
            count = math.floor(sc.duration / spec.hold) + 2
            seed = np.random.SeedSequence((sc.seed, idx)) if spec.seed is None else spec.seed
            drawn = noise_boundary_values(spec, seed, count)
            expected = drawn[np.minimum((times / spec.hold).astype(int), count - 1)]
            assert [gen.value(t) for t in times.tolist()] == expected.tolist(), ch


class TestSpecValidation:
    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: GaussianNoise(-1.0, hold=1.0),
            lambda: UniformNoise(1.0, -1.0, hold=1.0),
            lambda: BandLimitedNoise(-1e-3, 0.1, hold=1.0),
            lambda: BandLimitedNoise(1e-3, 0.0, hold=1.0),
            lambda: GaussianNoise(0.1, hold=0.0),
            lambda: GaussianNoise(0.1, hold=1.0, seed=-4),
            lambda: Ramp(0.1, 0.01, -5.0),
            lambda: Step(1.0, -1.0),
            lambda: Sinusoid(math.nan, 1.0),
            lambda: Sinusoid(1.0, math.inf),
            lambda: Step(math.nan, 1.0),
            lambda: Ramp(0.1, -math.inf, 1.0),
            lambda: GaussianNoise(math.inf, hold=1.0),
            lambda: UniformNoise(-math.inf, 0.1, hold=1.0),
            lambda: BandLimitedNoise(1e-3, math.nan, hold=1.0),
            lambda: GaussianNoise(0.1, hold=math.inf),
        ],
    )
    def test_rejects_invalid(self, ctor):
        with pytest.raises(ValueError):
            ctor()
