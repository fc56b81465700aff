import copy
import dataclasses
import importlib
import json
import math
import pkgutil
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadtrack
from quadtrack import (
    CHANNELS,
    BandLimitedNoise,
    ChannelGains,
    GaussianNoise,
    QuadrotorParams,
    Ramp,
    Scenario,
    ScenarioError,
    Sinusoid,
    Step,
    UniformNoise,
    load_scenario,
    run_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)
from quadtrack.disturbances import make_generator, noise_draw_size
from quadtrack.scenario import reference_trajectory, waypoint_trajectory
from quadtrack.vehicle import ANGLE_LIMIT


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
        assert isinstance(sc.disturbances["roll"], GaussianNoise)
        assert isinstance(sc.disturbances["pitch"], UniformNoise)
        assert isinstance(sc.disturbances["yaw"], BandLimitedNoise)

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

    # The digest hashes JSON only, so these values hold on any platform.
    @pytest.mark.parametrize("raw, digest", [
        ({}, "04b0af02fdc7e0e4b7e4cf4c6b4b0081775d59e55b169f9beb1fc7b8f98d71f0"),
        # quadbench's montecarlo member at seed 0
        ({"params": {"fixed_residual_speed": 0.0},
          "trajectory": {"type": "waypoints", "points": [[0.0, 0.0, 0.0, 1.0], [2.0, 1.0, 0.0, 1.5],
                                                         [4.0, 1.0, 1.0, 2.0]]},
          "disturbances": {ch: {"type": "noise", "kind": "gaussian", "sigma": 0.05, "hold": 0.05}
                           for ch in CHANNELS},
          "sim": {"duration": 0.125, "seed": 0}},
         "b404b21ff62871c595d2007a581a7e25e5eb20f76498aa2c1e587e532625d4d6"),
    ], ids=["stock", "montecarlo"])
    def test_digest_is_pinned(self, raw, digest):
        assert scenario_digest(scenario_from_dict(raw)) == digest


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
        assert sc.fixed_residual_speed == 3.0


_GAUSSIAN = {"type": "noise", "kind": "gaussian", "sigma": 0.1, "hold": 1.0}
_HUGE = 10 ** 400  # a JSON integer beyond the float range
_BOOL_STATE = [0.0] * 6 + [True] + [0.0] * 5


_REJECTED = {
    "raw5": {"sim": {"bogus": 1}},
    "raw6": {"gains": {"roll": {"p": -1.0}}},
    "raw7": {"gains": {"roll": {"nope": 1.0}}},
    "raw8": {"gains": {"diagonal": {"p": 1.0}}},
    "raw9": {"params": {"m": -0.1}},
    "raw10": {"params": {"whatever": 2}},
    "raw11": {"disturbances": {"x": {"type": "mystery"}}},
    "raw12": {"disturbances": {"sideways": {"type": "none"}}},
    "raw13": {"trajectory": {"type": "parabola"}},
    "raw14": {"trajectory": {"type": "waypoints"}},
    "raw15": {"initial_state": [0.0] * 11},
    "raw16": {"initial_state": [1.6] + [0.0] * 11},
    "raw17": {"unknown_section": {}},
    "not an object": "not an object",
    "raw19": {"sim": {"dt": "0.001"}},
    "raw20": {"psi_des": "x"},
    "raw21": {"initial_state": 5},
    "raw22": {"trajectory": "helix"},
    "raw23": {"disturbances": {"x": {"type": "sinusoid", "amplitude": "1", "omega": 0.1}}},
    "raw24": {"trajectory": {"type": "waypoints", "points": [[0, 1, 2]]}},
    "raw25": {"trajectory": {"type": "waypoints", "points": [[1, 0, 0, 1], [0, 1, 1, 1]]}},
    "raw26": {"params": {"Im": 1e-5}},
    "raw27": {"toggles": {"dz_hold_after_end": True}},
    "raw28": {"sim": {"duration": 0.0105}},
    # not finite
    "raw29": {"sim": {"dt": math.nan}},
    "raw30": {"sim": {"duration": math.inf}},
    "raw31": {"psi_des": math.nan},
    "raw32": {"params": {"Ix": math.inf}},
    "raw33": {"params": {"fixed_residual_speed": math.nan}},
    "raw34": {"gains": {"z": {"beta2": math.inf}}},
    "raw35": {"disturbances": {"x": {"type": "sinusoid", "amplitude": 1.0, "omega": math.nan}}},
    "raw36": {"disturbances": {"roll": {**_GAUSSIAN, "hold": math.inf}}},
    # wrong exact types: booleans are not numbers, strings not booleans
    "raw37": {"toggles": {"position_do": "no"}},
    "raw38": {"sim": {"seed": True}},
    "raw39": {"sim": {"decimation": True}},
    "raw40": {"disturbances": {"z": {"type": "ramp", "offset": 0.1, "slope": 0.01, "end": 100.0,
                            "hold_after": "no"}}},
    "raw41": {"disturbances": {"roll": {**_GAUSSIAN, "seed": True}}},
    "raw42": {"params": {"m": True}},
    "raw43": {"gains": {"roll": {"p": True}}},
    "raw44": {"params": {"fixed_residual_speed": True}},
    "raw45": {"disturbances": {"roll": {**_GAUSSIAN, "sigma": True}}},
    "raw46": {"trajectory": {"type": "waypoints", "points": [[0, True, 2, 3]]}},
    "raw47": {"trajectory": {"type": "waypoints", "points": [["0", "1", "2", "3"]]}},
    "raw48": {"disturbances": {"x": {"type": ["none"]}}},
    # unknown fields in disturbances and trajectories
    "raw49": {"disturbances": {"x": {"type": "sinusoid", "amplitude": 1.0, "omega": 0.1,
                            "phse": 0.5}}},
    "raw50": {"disturbances": {"roll": {**_GAUSSIAN, "sgima": 0.2}}},
    "raw51": {"trajectory": {"type": "helix", "points": [[0, 0, 0, 1]]}},
    "raw52": {"trajectory": {"type": "waypoints", "points": [[0, 0, 0, 1]], "speed": 2.0}},
    # integers too large for a float
    "raw53": {"sim": {"duration": _HUGE}},
    "raw54": {"gains": {"roll": {"k": _HUGE}}},
    "raw55": {"params": {"m": _HUGE}},
    "raw56": {"psi_des": _HUGE},
    "raw57": {"initial_state": [_HUGE] + [0.0] * 11},
    "raw58": {"disturbances": {"x": {"type": "step", "value": _HUGE, "onset": 1.0}}},
    "raw59": {"trajectory": {"type": "waypoints", "points": [[0, _HUGE, 0, 1]]}},
    "raw60": {"sim": {"duration": 1e308}},  # duration/dt overflows to inf
    "raw61": {"gains": {"roll": {"eps": 1e-200}}},  # eps * eps underflows to 0
    # Input gains l/Ix, l/Iy and 1/Iz that underflow to 0 or overflow to inf.
    "raw62": {"params": {"l": 5e-324, "Ix": 10.0}},
    "raw63": {"params": {"l": 5e-324, "Iy": 10.0}},
    "raw64": {"params": {"Iz": 1e-310}},
    "raw65": {"params": {"l": 1e308, "Ix": 1e-300}},
    # Step or noise-draw counts above sys.maxsize, which no run can allocate.
    "raw66": {"sim": {"dt": 1e-300, "duration": 1.0}},
    "raw67": {"sim": {"duration": 0.01}, "disturbances": {"roll": {
        "type": "noise", "kind": "gaussian", "sigma": 0.1, "hold": 1e-300}}},
    # inner_dt draws run to the last hold boundary the run reads, here at 0.01 s.
    "raw68": {"sim": {"duration": 0.01}, "disturbances": {"yaw": {
        "type": "noise", "kind": "band_limited", "power": 1e-3, "inner_dt": 1e-300,
        "hold": 0.005}}},
    "raw69": {"sim": {"duration": 0.01}, "disturbances": {"yaw": {
        "type": "noise", "kind": "band_limited", "power": 1e-3, "inner_dt": 1e-30,
        "hold": 0.005}}},
    # Noise scales that overflow: high - low, and the variance power / inner_dt.
    "raw70": {"sim": {"duration": 0.01}, "disturbances": {"pitch": {
        "type": "noise", "kind": "uniform", "low": -1e308, "high": 1e308,
        "hold": 0.005}}},
    "raw71": {"sim": {"duration": 0.01}, "disturbances": {"yaw": {
        "type": "noise", "kind": "band_limited", "power": 1e308, "inner_dt": 1e-3,
        "hold": 0.005}}},
    # A kind tag only on noise, and noise only with one.
    "raw72": {"disturbances": {"y": {"type": "step", "value": 1, "onset": 0, "kind": "gaussian"}}},
    "raw73": {"disturbances": {"roll": {"type": "noise", "sigma": 0.1, "hold": 1.0}}},
}


class TestValidationErrors:
    @pytest.mark.parametrize("raw", _REJECTED.values(), ids=list(_REJECTED))
    def test_rejected(self, raw):
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    # A hold that outlasts the run: its only boundary is at 0, so one inner normal is drawn.
    @pytest.mark.parametrize("inner_dt, hold", [(1e-300, 0.05), (1e-9, 1e10)])
    def test_hold_past_the_run_draws_one_inner_normal(self, inner_dt, hold):
        sc = scenario_from_dict({"sim": {"duration": 0.01}, "disturbances": {"yaw": {
            "type": "noise", "kind": "band_limited", "power": 1e-3, "inner_dt": inner_dt,
            "hold": hold, "seed": 3}}})
        spec = sc.disturbances["yaw"]
        assert noise_draw_size(spec, sc.duration) == (1.0, 1.0)
        gen = make_generator(spec, None, sc.duration)
        first = np.random.default_rng(3).normal(0.0, math.sqrt(1e-3 / inner_dt), 1)[0]
        assert gen.value(0.0) == gen.value(sc.duration) == first

    @pytest.mark.parametrize("change", [
        {"dt": 0.02}, {"waypoints": ((1, 0, 0, 1), (0, 1, 1, 1))},
        {"gains": {ch: g for ch, g in Scenario().gains.items() if ch != "z"}},
        {"disturbances": {ch: d for ch, d in Scenario().disturbances.items() if ch != "x"}},
        {"initial_state": (ANGLE_LIMIT,) + (0.0,) * 11},  # the angle guard's own bound
    ])
    def test_construction_validates(self, change):
        with pytest.raises(ScenarioError):
            dataclasses.replace(Scenario(), **change)

    # cls(**kwargs) fails with message; raw is the same fault in a file, or None where a file
    # cannot express it.
    @pytest.mark.parametrize("cls, kwargs, message, raw", [
        *((Scenario, {"waypoints": rows}, f"Scenario.waypoints[1][2] out of range: {bad!r}",
           {"trajectory": {"type": "waypoints", "points": rows}})
          for bad, rows in ((bad, [[0, 0, 0, 1], [1, 0, bad, 1]])
                            for bad in (True, "0", _HUGE, math.inf))),
        (Scenario, {"initial_state": _BOOL_STATE}, "Scenario.initial_state[6] out of range: True",
         {"initial_state": _BOOL_STATE}),
        (Scenario, {"initial_state": [0.0] * 11 + [math.nan]},
         "Scenario.initial_state[11] out of range: nan", {"initial_state": [0.0] * 11 + [math.nan]}),
        (Scenario, {"seed": 1.5}, "Scenario.seed out of range: 1.5", {"sim": {"seed": 1.5}}),
        (Scenario, {"decimation": 2.5}, "Scenario.decimation out of range: 2.5",
         {"sim": {"decimation": 2.5}}),
        (GaussianNoise, {"sigma": 0.1, "hold": 1.0, "seed": 1.5},
         "GaussianNoise.seed out of range: 1.5",
         {"disturbances": {"roll": {**_GAUSSIAN, "seed": 1.5}}}),
        (QuadrotorParams, {"m": _HUGE}, f"QuadrotorParams.m out of range: {_HUGE!r}",
         {"params": {"m": _HUGE}}),
        (Scenario, {"position_do": "no"}, "Scenario.position_do out of range: 'no'",
         {"toggles": {"position_do": "no"}}),
        (Ramp, {"offset": 0.1, "slope": 0.01, "end": 1.0, "hold_after": "no"},
         "Ramp.hold_after out of range: 'no'",
         {"disturbances": {"z": {"type": "ramp", "offset": 0.1, "slope": 0.01, "end": 1.0,
                                 "hold_after": "no"}}}),
        (Scenario, {"params": "p"}, "Scenario.params out of range: 'p'", None),
        (Scenario, {"true_state_feedback": None},
         "Scenario.true_state_feedback out of range: None",
         {"toggles": {"true_state_feedback": None}}),
        (Scenario, {"gains": {**Scenario().gains, "x": "oops"}},
         "Scenario.gains['x'] out of range: 'oops'", None),
        (Scenario, {"disturbances": {**Scenario().disturbances, "x": "oops"}},
         "Scenario.disturbances['x'] out of range: 'oops'", None),
    ], ids=["row-bool", "row-string", "row-huge", "row-inf", "initial_state-bool",
            "initial_state-nan", "seed-float", "decimation-float", "noise-seed-float",
            "params-huge", "toggle-string", "hold_after-string", "params-string",
            "toggles-none", "gains-entry", "disturbances-entry"])
    def test_construction_rejects_what_the_loader_rejects(self, cls, kwargs, message, raw):
        with pytest.raises(ScenarioError) as built:
            cls(**kwargs)
        assert str(built.value) == message
        if raw is not None:
            with pytest.raises(ScenarioError) as loaded:
                scenario_from_dict(raw)
            # The loader prefixes "bad {section}: " where it builds a section's dataclass.
            prefix = "" if cls is Scenario else r"bad [\w.]+: "
            assert re.fullmatch(prefix + re.escape(message), str(loaded.value))

    def test_a_bad_entry_in_a_long_list_is_named_alone(self):
        # The message names the one entry, whatever the length of the list around it.
        rows = [[t, 0.0, 0.0, 1.0] for t in range(5000)]
        rows[3210][2] = True
        message = "Scenario.waypoints[3210][2] out of range: True"
        with pytest.raises(ScenarioError) as built:
            Scenario(waypoints=rows)
        with pytest.raises(ScenarioError) as loaded:
            scenario_from_dict({"trajectory": {"type": "waypoints", "points": rows}})
        assert str(built.value) == str(loaded.value) == message
        rows[3210] = "row"
        with pytest.raises(ScenarioError, match=re.escape("waypoints[3210] out of range: 'row'")):
            Scenario(waypoints=rows)


# A valid instance of each configuration dataclass with number fields and, per range-checked
# field, a finite value past each bound of its range, the bound itself where the range excludes
# it (() where any finite value is in range).
_OVER_1 = math.nextafter(1.0, 2.0)
_NOT_POSITIVE = (0.0, -1.0)
_RANGES = [
    (ChannelGains(p=1.0, k=1.0, lam=1.0),
     {"p": _NOT_POSITIVE, "k": _NOT_POSITIVE, "lam": (0.5, -1.0),
      "tau": (*_NOT_POSITIVE, _OVER_1), "m1": _NOT_POSITIVE, "m2": _NOT_POSITIVE,
      "beta1": _NOT_POSITIVE, "beta2": _NOT_POSITIVE, "eps": (*_NOT_POSITIVE, _OVER_1, 1e-200)}),
    # 5e-324 makes the input gain l / Ix, l / Iy or 1 / Iz overflow.
    (QuadrotorParams(),
     {"g": _NOT_POSITIVE, "m": _NOT_POSITIVE, "l": _NOT_POSITIVE, "b": _NOT_POSITIVE,
      "d": _NOT_POSITIVE, "Ir": _NOT_POSITIVE, "Ix": (*_NOT_POSITIVE, 5e-324),
      "Iy": (*_NOT_POSITIVE, 5e-324), "Iz": (*_NOT_POSITIVE, 5e-324)}),
    (Sinusoid(1.0, 0.1), {"amplitude": (), "omega": (), "phase": ()}),
    (Step(1.0, 1.0), {"value": (), "onset": (-1.0,)}),
    (Ramp(0.1, 0.01, 1.0), {"offset": (), "slope": (), "end": (-1.0,)}),
    (GaussianNoise(0.1, hold=1.0), {"sigma": (-0.1,), "hold": _NOT_POSITIVE, "seed": (-1,)}),
    # high < low is reported on high
    (UniformNoise(-0.1, 0.1, hold=1.0),
     {"low": (), "high": (-0.2,), "hold": _NOT_POSITIVE, "seed": (-1,)}),
    # 5e-324 makes the variance power / inner_dt overflow.
    (BandLimitedNoise(1e-3, 0.1, hold=1.0),
     {"power": (-1e-3,), "inner_dt": (*_NOT_POSITIVE, 5e-324), "hold": _NOT_POSITIVE,
      "seed": (-1,)}),
    (Scenario(duration=1.0),
     {"dt": (*_NOT_POSITIVE, math.nextafter(0.01, 1.0)), "duration": _NOT_POSITIVE,
      "seed": (-1,), "decimation": (0,), "psi_des": (), "fixed_residual_speed": ()}),
]
# A valid instance of each configuration dataclass with other fields, and those fields: the
# rule checks their type, and Scenario checks some of them further by hand.
_TYPE_ONLY = [
    (Ramp(0.1, 0.01, 1.0), ("hold_after",)),
    (Scenario(duration=1.0),
     ("params", "gains", "waypoints", "disturbances", "initial_state", "position_do",
      "true_state_feedback")),
]
_FIELD_CASES = [(base, name, outside) for base, fields in _RANGES
                for name, outside in fields.items()]
_EVERY_FIELD = [(base, name) for base, fields in _RANGES + _TYPE_ONLY for name in fields]


def _config_classes():
    """Every frozen dataclass with fields that a module of the package defines."""
    modules = [importlib.import_module(f"quadtrack.{info.name}")
               for info in pkgutil.iter_modules(quadtrack.__path__) if info.name != "__main__"]
    return {obj for module in modules for obj in vars(module).values()
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
            and obj.__dataclass_params__.frozen and dataclasses.fields(obj)}


class TestRangeRule:
    """Every field of every configuration dataclass goes through errors.require_fields."""

    def test_table_lists_every_number_field(self):
        # Every field the rule reads, bool and class fields included, is in one of the tables.
        hints = {cls: typing.get_type_hints(cls) for cls in _config_classes()}
        assert {(type(base), name) for base, name in _EVERY_FIELD} == {
            (cls, name) for cls in hints for name in hints[cls]}
        # Every number field but the hand-checked initial_state is in _RANGES, so
        # test_non_finite_or_out_of_range_names_the_field tries NaN, inf and True on it.
        numbers = {(cls, name) for cls in hints for name, hint in hints[cls].items()
                   if {int, float} & set(typing.get_args(hint) or (hint,))}
        assert numbers - {(Scenario, "initial_state")} == {
            (type(base), name) for base, fields in _RANGES for name in fields}

    @pytest.mark.parametrize("base, name", _EVERY_FIELD,
                             ids=[f"{type(b).__name__}.{n}" for b, n in _EVERY_FIELD])
    def test_wrong_type_names_the_field(self, base, name):
        # A string is no field's type; a range test that compared it would raise TypeError.
        with pytest.raises(ScenarioError) as exc:
            dataclasses.replace(base, **{name: "oops"})
        assert str(exc.value) == f"{type(base).__name__}.{name} out of range: 'oops'"

    @pytest.mark.parametrize("base, name, outside", _FIELD_CASES,
                             ids=[f"{type(b).__name__}.{n}" for b, n, _ in _FIELD_CASES])
    def test_non_finite_or_out_of_range_names_the_field(self, base, name, outside):
        # True: a bool compares as a number, but the loader rejects it by type.
        for value in (math.nan, math.inf, True, *outside):
            with pytest.raises(ScenarioError) as exc:
                dataclasses.replace(base, **{name: value})
            assert isinstance(exc.value, ValueError)
            assert str(exc.value) == f"{type(base).__name__}.{name} out of range: {value!r}"

    def test_eps_whose_square_is_normal_is_accepted(self):
        # The other side of the table's 1e-200, whose square underflows to 0.0.
        assert ChannelGains(p=1.0, k=1.0, lam=1.0, eps=1e-150).eps == 1e-150

    def test_boolean_noise_seed_is_out_of_range(self):
        # The loader rejects a JSON boolean by type; direct construction meets the same rule.
        with pytest.raises(ScenarioError) as exc:
            GaussianNoise(0.1, 1.0, seed=True)
        assert str(exc.value) == "GaussianNoise.seed out of range: True"

    @pytest.mark.parametrize("raw, message", [
        ({"gains": {"roll": {"p": -1}}}, "bad gains.roll: ChannelGains.p out of range: -1"),
        ({"disturbances": {"y": {"type": "step", "value": 1.0, "onset": -1}}},
         "bad disturbances.y: Step.onset out of range: -1"),
        ({"sim": {"dt": 0.5}}, "Scenario.dt out of range: 0.5"),
        # The residual-speed pin sits in the params section but is a Scenario field.
        ({"params": {"fixed_residual_speed": True}},
         "Scenario.fixed_residual_speed out of range: True"),
        ({"params": 5}, "params must be an object, got 5"),
    ], ids=["gains", "disturbances", "sim", "params-pin", "params-not-object"])
    def test_load_names_the_section_and_the_field(self, raw, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert str(exc.value) == message


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


def _interp(table, t):
    """np.interp on each axis of a (t, x, y, z) table."""
    return tuple(float(np.interp(t, table[:, 0], table[:, k])) for k in (1, 2, 3))


def _bits(values):
    """The bit patterns of a tuple of floats, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=float).tobytes()


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
            assert _bits(traj(t)) == _bits(_interp(table, t)), t

    def test_keeps_a_signed_zero_at_a_waypoint(self):
        # np.interp returns the waypoint itself at its time; on the rising segment after it,
        # slope * 0.0 + -0.0 would give +0.0.
        table = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -0.0, -0.0, -0.0], [2.0, 1.0, 1.0, 1.0]])
        assert _bits(waypoint_trajectory(table.tolist())(1.0)) == _bits(_interp(table, 1.0))
        assert _bits(_interp(table, 1.0)) == _bits((-0.0,) * 3)

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
        with pytest.raises(ValueError, match="non-empty sequence"):
            waypoint_trajectory(None)
        # One row has no segment, so only the entry check sees its NaN.
        with pytest.raises(ValueError, match="waypoints must be finite"):
            waypoint_trajectory([[0.0, math.nan, 0.0, 0.0]])


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

    def test_editing_the_lists_it_was_built_from_changes_neither_digest_nor_run(self):
        rows, state = [[0, 0, 0, 1], [1, 1, 0, 1]], [0.0] * 12
        pristine = Scenario(waypoints=copy.deepcopy(rows), initial_state=list(state),
                            duration=0.05)
        sc = Scenario(waypoints=rows, initial_state=state, duration=0.05)
        rows[1][0] = -5.0
        rows.append([2, 0, 0, 0])
        state[6] = 3.0
        assert scenario_digest(sc) == scenario_digest(pristine)
        assert np.array_equal(run_scenario(sc).log.data, run_scenario(pristine).log.data)


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
_COORD = st.integers(-1000, 1000) | _ANY
# The helix, or 1-4 rows whose times (unique, so strictly increasing once sorted) and
# positions mix ints and floats.
_TRAJECTORIES = st.just({"type": "helix"}) | st.tuples(
    st.lists(_COORD, min_size=1, max_size=4, unique=True),
    st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=4, max_size=4),
).map(lambda tp: {"type": "waypoints",
                  "points": [[t, *p] for t, p in zip(sorted(tp[0]), tp[1])]})


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
    return {"params": params, "gains": gains, "trajectory": draw(_TRAJECTORIES), "sim": sim,
            "disturbances": disturbances}


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
              if not isinstance(value, (dict, list))]
    leaves += [(row, i) for row in raw["trajectory"].get("points", ()) for i in range(len(row))]
    if draw(st.booleans()):
        obj, key = draw(st.sampled_from(leaves))
        # In a waypoint row an int is a number too, so any entry there takes a float's wrong type.
        obj[key] = _WRONG_TYPE[float if type(obj) is list else type(obj[key])]
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
