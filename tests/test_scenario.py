import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtrack import (
    Ramp,
    SampledNoise,
    Scenario,
    ScenarioError,
    Sinusoid,
    Step,
    load_scenario,
    make_generator,
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
