import copy
import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtrack import (
    CHANNELS,
    BandLimitedNoise,
    ChannelGains,
    GaussianNoise,
    QuadrotorParams,
    Ramp,
    SampledNoise,
    Scenario,
    ScenarioError,
    Sinusoid,
    Step,
    UniformNoise,
    load_scenario,
    make_generator,
    run_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)


class TestDefaults:
    def test_default_scenario_validates(self):
        sc = Scenario()
        assert sc.dt == 1e-3
        assert sc.duration == 120.0
        assert sc.params.m == 0.650
        assert sc.gains["roll"].p == 100.0
        assert sc.gains["roll"].k == 120.0
        assert sc.gains["yaw"].k == 10.0
        assert sc.gains["x"].k == 5.0
        assert sc.gains["z"].k == 1.0
        assert sc.gains["x"].m2 == 0.1
        assert isinstance(sc.disturbances["x"], Sinusoid)
        assert isinstance(sc.disturbances["y"], Step)
        assert isinstance(sc.disturbances["z"], Ramp)
        assert isinstance(sc.disturbances["roll"], SampledNoise)

    def test_empty_object_resolves_to_defaults(self):
        assert scenario_from_dict({}) == Scenario()

    def test_loads_share_the_stock_tables(self):
        a, b = scenario_from_dict({}), scenario_from_dict({})
        assert a.gains is not b.gains and a.disturbances is not b.disturbances
        for ch in CHANNELS:
            assert a.gains[ch] is b.gains[ch] is Scenario().gains[ch]
            assert a.disturbances[ch] is b.disturbances[ch] is Scenario().disturbances[ch]

    def test_round_trip_through_dict(self):
        sc = Scenario()
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_digest_stable_and_sensitive(self):
        sc = Scenario()
        assert scenario_digest(sc) == scenario_digest(Scenario())
        other = dataclasses.replace(sc, seed=1)
        assert scenario_digest(other) != scenario_digest(sc)


class TestPartialOverrides:
    def test_single_gain_field(self):
        sc = scenario_from_dict({"gains": {"roll": {"k": 90.0}}})
        assert sc.gains["roll"].k == 90.0
        assert sc.gains["roll"].p == 100.0  # untouched fields keep defaults
        assert sc.gains["pitch"].k == 120.0

    def test_param_field(self):
        sc = scenario_from_dict({"params": {"m": 0.7}})
        assert sc.params.m == 0.7
        assert sc.params.Ix == 7.5e-3

    def test_sim_fields(self):
        sc = scenario_from_dict({"sim": {"dt": 0.002, "seed": 5}})
        assert sc.dt == 0.002 and sc.seed == 5 and sc.duration == 120.0

    def test_seed_beyond_the_float_range_loads(self):
        assert scenario_from_dict({"sim": {"seed": _HUGE}}).seed == _HUGE

    def test_disturbance_override_replaces_whole_spec(self):
        sc = scenario_from_dict({"disturbances": {"x": {"type": "none"}}})
        from quadtrack import NoDisturbance
        assert isinstance(sc.disturbances["x"], NoDisturbance)
        assert isinstance(sc.disturbances["y"], Step)

    def test_ramp_hold_after_override(self):
        ramp = {"type": "ramp", "offset": 0.1, "slope": 0.01, "end": 100.0, "hold_after": True}
        sc = scenario_from_dict({"disturbances": {"z": ramp}})
        assert sc.disturbances["z"].hold_after is True
        gen = make_generator(sc.disturbances["z"], None, sc.duration)
        assert gen.value(110.0) == gen.value(100.0) == pytest.approx(1.1)

    def test_fixed_residual_speed(self):
        sc = scenario_from_dict({"params": {"fixed_residual_speed": 3.0}})
        assert sc.params.fixed_residual_speed == 3.0


_GAUSSIAN = {"type": "noise", "kind": "gaussian", "sigma": 0.1, "hold": 1.0}
_HUGE = 10 ** 400  # a JSON integer beyond the float range


class TestValidationErrors:
    @pytest.mark.parametrize(
        "raw",
        [
            {"sim": {"dt": 0.0}},
            {"sim": {"dt": 0.02}},
            {"sim": {"duration": -1.0}},
            {"sim": {"seed": -1}},
            {"sim": {"decimation": 0}},
            {"sim": {"bogus": 1}},
            {"gains": {"roll": {"p": -1.0}}},
            {"gains": {"roll": {"nope": 1.0}}},
            {"gains": {"diagonal": {"p": 1.0}}},
            {"params": {"m": -0.1}},
            {"params": {"whatever": 2}},
            {"disturbances": {"x": {"type": "mystery"}}},
            {"disturbances": {"sideways": {"type": "none"}}},
            {"trajectory": {"type": "parabola"}},
            {"trajectory": {"type": "waypoints"}},
            {"initial_state": [0.0] * 11},
            {"initial_state": [1.6] + [0.0] * 11},
            {"unknown_section": {}},
            "not an object",
            {"sim": {"dt": "0.001"}},
            {"psi_des": "x"},
            {"initial_state": 5},
            {"trajectory": "helix"},
            {"disturbances": {"x": {"type": "sinusoid", "amplitude": "1", "omega": 0.1}}},
            {"trajectory": {"type": "waypoints", "points": [[0, 1, 2]]}},
            {"trajectory": {"type": "waypoints", "points": [[1, 0, 0, 1], [0, 1, 1, 1]]}},
            {"params": {"Im": 1e-5}},
            {"toggles": {"dz_hold_after_end": True}},
            {"sim": {"duration": 0.0105}},
            # not finite
            {"sim": {"dt": math.nan}},
            {"sim": {"duration": math.inf}},
            {"psi_des": math.nan},
            {"params": {"Ix": math.inf}},
            {"params": {"fixed_residual_speed": math.nan}},
            {"gains": {"z": {"beta2": math.inf}}},
            {"disturbances": {"x": {"type": "sinusoid", "amplitude": 1.0, "omega": math.nan}}},
            {"disturbances": {"roll": {**_GAUSSIAN, "hold": math.inf}}},
            # wrong exact types: booleans are not numbers, strings not booleans
            {"toggles": {"position_do": "no"}},
            {"sim": {"seed": True}},
            {"sim": {"decimation": True}},
            {"disturbances": {"z": {"type": "ramp", "offset": 0.1, "slope": 0.01, "end": 100.0,
                                    "hold_after": "no"}}},
            {"disturbances": {"roll": {**_GAUSSIAN, "seed": True}}},
            {"params": {"m": True}},
            {"gains": {"roll": {"p": True}}},
            {"params": {"fixed_residual_speed": True}},
            {"disturbances": {"roll": {**_GAUSSIAN, "sigma": True}}},
            {"trajectory": {"type": "waypoints", "points": [[0, True, 2, 3]]}},
            {"trajectory": {"type": "waypoints", "points": [["0", "1", "2", "3"]]}},
            {"disturbances": {"x": {"type": ["none"]}}},
            # unknown fields in disturbances and trajectories
            {"disturbances": {"x": {"type": "sinusoid", "amplitude": 1.0, "omega": 0.1,
                                    "phse": 0.5}}},
            {"disturbances": {"roll": {**_GAUSSIAN, "sgima": 0.2}}},
            {"trajectory": {"type": "helix", "points": [[0, 0, 0, 1]]}},
            {"trajectory": {"type": "waypoints", "points": [[0, 0, 0, 1]], "speed": 2.0}},
            # integers too large for a float
            {"sim": {"duration": _HUGE}},
            {"gains": {"roll": {"k": _HUGE}}},
            {"params": {"m": _HUGE}},
            {"psi_des": _HUGE},
            {"initial_state": [_HUGE] + [0.0] * 11},
            {"disturbances": {"x": {"type": "step", "value": _HUGE, "onset": 1.0}}},
            {"trajectory": {"type": "waypoints", "points": [[0, _HUGE, 0, 1]]}},
            {"sim": {"duration": 1e308}},  # duration/dt overflows to inf
            {"gains": {"roll": {"eps": 1e-200}}},  # eps * eps underflows to 0
            # Step or noise-draw counts above sys.maxsize, which no run can allocate.
            {"sim": {"dt": 1e-300, "duration": 1.0}},
            {"sim": {"duration": 0.01}, "disturbances": {"roll": {
                "type": "noise", "kind": "gaussian", "sigma": 0.1, "hold": 1e-300}}},
            {"sim": {"duration": 0.01}, "disturbances": {"yaw": {
                "type": "noise", "kind": "band_limited", "power": 1e-3, "inner_dt": 1e-300,
                "hold": 0.05}}},
            # inner_dt draws run to the last hold boundary, past the duration.
            {"sim": {"duration": 0.01}, "disturbances": {"yaw": {
                "type": "noise", "kind": "band_limited", "power": 1e-3, "inner_dt": 1e-9,
                "hold": 1e10}}},
        ],
    )
    def test_rejected(self, raw):
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("change", [{"dt": 0.02}, {"trajectory": {"type": "parabola"}}])
    def test_construction_validates(self, change):
        with pytest.raises(ScenarioError):
            dataclasses.replace(Scenario(), **change)


# A valid instance of each configuration dataclass with number fields and, per
# range-checked field, a finite value outside its range (None: any finite value is in range).
_RANGES = [
    (ChannelGains(p=1.0, k=1.0, lam=1.0),
     {"p": 0.0, "k": -1.0, "lam": 0.5, "tau": 1.5, "m1": 0.0, "m2": -0.1, "beta1": 0.0,
      "beta2": 0.0, "eps": 1e-200}),
    (QuadrotorParams(fixed_residual_speed=0.0),
     {"g": 0.0, "m": -0.1, "l": 0.0, "b": 0.0, "d": 0.0, "Ir": 0.0, "Ix": 0.0, "Iy": 0.0,
      "Iz": 0.0, "fixed_residual_speed": None}),
    (Sinusoid(1.0, 0.1), {"amplitude": None, "omega": None, "phase": None}),
    (Step(1.0, 1.0), {"value": None, "onset": -1.0}),
    (Ramp(0.1, 0.01, 1.0), {"offset": None, "slope": None, "end": -1.0}),
    (GaussianNoise(0.1), {"sigma": -0.1}),
    (UniformNoise(-0.1, 0.1), {"low": None, "high": -0.2}),  # high < low is reported on high
    (BandLimitedNoise(1e-3, 0.1), {"power": -1e-3, "inner_dt": 0.0}),
    (SampledNoise(GaussianNoise(0.1), hold=1.0), {"hold": 0.0, "seed": -1}),
    (Scenario(duration=1.0),
     {"dt": 0.02, "duration": 0.0, "seed": -1, "decimation": 0, "psi_des": None}),
]
# Number fields checked by hand instead: a check across entries.
_HAND_CHECKED = {(Scenario, "initial_state")}
_FIELD_CASES = [(base, name, bad) for base, fields in _RANGES for name, bad in fields.items()]


class TestRangeRule:
    """Every range-checked number field goes through errors.require_fields."""

    def test_table_lists_every_number_field(self):
        for base, fields in _RANGES:
            cls = type(base)
            numbers = {name for name, hint in typing.get_type_hints(cls).items()
                       if {int, float} & set(typing.get_args(hint) or (hint,))}
            assert numbers - {name for c, name in _HAND_CHECKED if c is cls} == set(fields)

    @pytest.mark.parametrize("base, name, bad", _FIELD_CASES,
                             ids=[f"{type(b).__name__}.{n}" for b, n, _ in _FIELD_CASES])
    def test_non_finite_or_out_of_range_names_the_field(self, base, name, bad):
        for value in (math.nan, math.inf) + (() if bad is None else (bad,)):
            with pytest.raises(ScenarioError) as exc:
                dataclasses.replace(base, **{name: value})
            assert isinstance(exc.value, ValueError)
            assert str(exc.value) == f"{type(base).__name__}.{name} out of range: {value!r}"

    def test_boolean_noise_seed_is_out_of_range(self):
        # The loader rejects a JSON boolean by type; direct construction meets the same rule.
        with pytest.raises(ScenarioError) as exc:
            SampledNoise(GaussianNoise(0.1), 1.0, seed=True)
        assert str(exc.value) == "SampledNoise.seed out of range: True"

    @pytest.mark.parametrize("raw, message", [
        ({"gains": {"roll": {"p": -1}}}, "bad gains.roll: ChannelGains.p out of range: -1"),
        ({"disturbances": {"y": {"type": "step", "value": 1.0, "onset": -1}}},
         "bad disturbances.y: Step.onset out of range: -1"),
        ({"sim": {"dt": 0.5}}, "Scenario.dt out of range: 0.5"),
    ], ids=["gains", "disturbances", "sim"])
    def test_load_names_the_section_and_the_field(self, raw, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert str(exc.value) == message


class TestScenarioOwnsItsTrajectory:
    def test_editing_the_input_or_the_output_dict_changes_neither_digest_nor_run(self):
        raw = {"trajectory": {"type": "waypoints", "points": [[0, 0, 0, 1], [1, 1, 0, 1]]},
               "sim": {"duration": 0.05}}
        pristine = scenario_from_dict(copy.deepcopy(raw))
        sc = scenario_from_dict(raw)
        raw["trajectory"]["points"][1][0] = -5.0
        scenario_to_dict(sc)["trajectory"]["type"] = "helix"
        assert scenario_digest(sc) == scenario_digest(pristine)
        log, metrics = run_scenario(sc)
        assert metrics.completed
        assert np.array_equal(log.data, run_scenario(pristine).log.data)


class TestFileLoading:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"sim": {"duration": 5.0}}))
        sc = load_scenario(path)
        assert sc.duration == 5.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)


def _floats(lo, hi, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False, **kw)


_POSITIVE = _floats(1e-6, 1e3)
_UNIT = _floats(1e-3, 1.0)
_ANY = _floats(-1e3, 1e3)
_PARAM_FIELDS = ("g", "m", "l", "b", "d", "Ir", "Ix", "Iy", "Iz")
_GAIN_FIELDS = {"p": _POSITIVE, "k": _POSITIVE, "lam": _floats(0.51, 1e3), "tau": _UNIT,
                "m1": _POSITIVE, "m2": _POSITIVE, "beta1": _POSITIVE, "beta2": _POSITIVE,
                "eps": _UNIT}
_CHANNELS = ("roll", "pitch", "yaw", "x", "y", "z")
_NOISE_KINDS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("gaussian"), "sigma": _floats(0.0, 10.0)}),
    st.tuples(_ANY, _ANY).map(lambda lh: {"kind": "uniform", "low": min(lh), "high": max(lh)}),
    st.fixed_dictionaries({"kind": st.just("band_limited"), "power": _floats(0.0, 10.0),
                           "inner_dt": _POSITIVE}),
)
_DISTURBANCES = st.one_of(
    st.just({"type": "none"}),
    st.fixed_dictionaries({"type": st.just("sinusoid"), "amplitude": _ANY, "omega": _ANY,
                           "phase": _ANY}),
    st.fixed_dictionaries({"type": st.just("step"), "value": _ANY, "onset": _floats(0.0, 1e3)}),
    st.fixed_dictionaries({"type": st.just("ramp"), "offset": _ANY, "slope": _ANY,
                           "end": _floats(0.0, 1e3), "hold_after": st.booleans()}),
    st.tuples(_NOISE_KINDS, _POSITIVE, st.none() | st.integers(0, 2**32)).map(
        lambda k: {"type": "noise", **k[0], "hold": k[1], "seed": k[2]}),
)


@st.composite
def _valid_overrides(draw):
    params = draw(st.fixed_dictionaries({"fixed_residual_speed": st.none() | _ANY},
                                        optional={name: _POSITIVE for name in _PARAM_FIELDS}))
    gains = draw(st.dictionaries(st.sampled_from(_CHANNELS),
                                 st.fixed_dictionaries({}, optional=_GAIN_FIELDS)))
    dt = draw(_floats(1e-5, 0.01))
    sim = {"dt": dt, "duration": draw(st.integers(1, 10**6)) * dt,
           "seed": draw(st.integers(0, 2**32)), "decimation": draw(st.integers(1, 100))}
    disturbances = draw(st.dictionaries(st.sampled_from(_CHANNELS), _DISTURBANCES))
    return {"params": params, "gains": gains, "sim": sim, "disturbances": disturbances}


def _objects(d):
    yield d
    for value in d.values():
        if isinstance(value, dict):
            yield from _objects(value)


# A value of each type found in a valid override -> a value of a type its field refuses:
# a bool for a number, a string for a bool, a float for an int, a number for a tag.
_WRONG_TYPE = {float: True, bool: "true", int: 1.0, type(None): "none", str: 1.0}


@st.composite
def _invalid_overrides(draw):
    """A valid override with one wrong-typed value or one unknown key in some section."""
    raw = copy.deepcopy(draw(_valid_overrides()))  # st.just shares its value between draws
    objects = list(_objects(raw))
    leaves = [(obj, key) for obj in objects for key, value in obj.items()
              if not isinstance(value, dict)]
    if draw(st.booleans()):
        obj, key = draw(st.sampled_from(leaves))
        obj[key] = _WRONG_TYPE[type(obj[key])]
    else:
        draw(st.sampled_from(objects))["bogus"] = 0.0
    return raw


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_valid_overrides())
    def test_dict_round_trip_keeps_scenario_and_digest(self, raw):
        sc = scenario_from_dict(raw)
        back = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
        assert back == sc
        assert scenario_digest(back) == scenario_digest(sc)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_invalid_overrides())
    def test_wrong_type_or_unknown_field_is_rejected(self, raw):
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)
