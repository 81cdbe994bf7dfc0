"""Scenario construction, classification, validation, and persistence."""

import dataclasses
import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_mac.scenario import (
    CLASS_MOBILE,
    CLASS_NEW,
    CLASS_STATIC,
    ComputeModel,
    DcfParams,
    RadioParams,
    RisInventory,
    UserPopulation,
    advance_frame,
    build_population,
    classify_users,
    default_scenario,
    Scenario,
    ScenarioInvalid,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_json,
    validate_scenario,
)


class TestClassify:
    def test_reference_population_split(self):
        # 200 users at 5:4:1 -> 100 static, 80 existing mobile, 20 new;
        # existing count 180, mobile total 100
        pop = build_population(200, (5, 4, 1))
        assert pop.num_existing == 180
        assert pop.num_new_mobile == 20
        static, mobile = classify_users(pop)
        assert len(static) == 100
        assert len(mobile) == 100

    def test_empty_population(self):
        pop = build_population(0)
        static, mobile = classify_users(pop)
        assert static.tolist() == [] and mobile.tolist() == []

    def test_explicit_flags(self):
        pop = UserPopulation(
            num_existing=3,
            num_new_mobile=2,
            mobility_flags=(1, 0, 1),
            positions=tuple((float(i), 0.0, 0.0) for i in range(5)),
        )
        static, mobile = classify_users(pop)
        assert static.tolist() == [0, 2]
        assert mobile.tolist() == [1, 3, 4]  # new users appended with fresh ids

    def test_flag_length_mismatch_rejected(self):
        pop = UserPopulation(2, 0, (1,), ((0.0, 0.0, 0.0),) * 2)
        with pytest.raises(ValueError):
            classify_users(pop)

    @given(
        flags=st.lists(st.integers(min_value=0, max_value=1), max_size=40),
        z=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, flags, z):
        k = len(flags)
        pop = UserPopulation(
            num_existing=k,
            num_new_mobile=z,
            mobility_flags=tuple(flags),
            positions=tuple((1.0, 1.0, 0.0) for _ in range(k + z)),
        )
        static, mobile = classify_users(pop)
        assert sorted(static.tolist() + mobile.tolist()) == list(range(k + z))
        assert set(static).isdisjoint(mobile)
        assert len(static) == sum(flags)
        assert len(mobile) == k - sum(flags) + z


def flagged_population(flags, num_new):
    return UserPopulation(
        num_existing=len(flags), num_new_mobile=num_new, mobility_flags=tuple(flags),
        positions=((1.0, 1.0, 0.0),) * (len(flags) + num_new),
    )


class TestUserClasses:
    """The class vector is the one definition of a user's class, and
    classify_users is derived from it."""

    @pytest.mark.parametrize("flags, num_new", [
        ((0, 1, 0, 1), 3), ((1, 0, 0, 1, 1), 0), ((), 2), ((1, 1), 1),
    ])
    def test_class_vector_matches_per_user_reference(self, flags, num_new):
        want = [CLASS_STATIC if u == 1 else CLASS_MOBILE for u in flags]
        want += [CLASS_NEW] * num_new
        got = flagged_population(flags, num_new).classes
        assert got.tolist() == want
        assert got.dtype == np.array([0]).dtype

    @given(
        flags=st.lists(st.integers(min_value=0, max_value=1), max_size=60),
        num_new=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_vector_and_id_lists_match_their_references(self, flags, num_new):
        pop = flagged_population(flags, num_new)
        # the per-user class, and the list comprehensions classify_users was
        want = [CLASS_STATIC if u == 1 else CLASS_MOBILE for u in flags]
        want += [CLASS_NEW] * num_new
        assert pop.classes.tolist() == want
        static_ids = [k for k, u in enumerate(flags) if u == 1]
        mobile_ids = [k for k, u in enumerate(flags) if u == 0]
        mobile_ids += list(range(len(flags), len(flags) + num_new))
        static, mobile = classify_users(pop)
        assert (static.tolist(), mobile.tolist()) == (static_ids, mobile_ids)
        assert static.dtype.kind == mobile.dtype.kind == "i"

    def test_built_once_per_population(self, monkeypatch):
        # one scheme 1 and one proposed cell read the vector in the plan,
        # the frames, the fairness tally and classify_users: one build
        from ris_mac import simulator as sim
        from ris_mac.experiments import plan_cell

        prop = UserPopulation.__dict__["classes"]
        build, built = prop.func, []
        monkeypatch.setattr(prop, "func", lambda pop: built.append(pop) or build(pop))
        s = default_scenario(total_users=40, elements_per_ris=8)
        channels, plan = plan_cell(s, 2)
        for mode in ("proposed", "scheme1"):
            frame, alloc = sim.plan_mode(s, channels, plan, mode)
            sim.measure_fairness(sim.run_frame(s, channels, frame, alloc, mode, 2))
        classify_users(s.population)
        assert len(built) == 1 and built[0] is s.population

    def test_read_only_and_not_a_field(self, tmp_path):
        s = default_scenario(total_users=20)
        pop = s.population
        unread = dataclasses.replace(pop)
        cls = pop.classes
        assert pop.classes is cls  # built once, then read
        with pytest.raises(ValueError):
            cls[0] = CLASS_NEW
        # equality, to_dict and scenario files see the fields alone
        assert pop == unread and "classes" not in unread.__dict__
        assert set(s.to_dict()["population"]) == {
            "num_existing", "num_new_mobile", "mobility_flags", "positions",
        }
        path = tmp_path / "s.json"
        save_scenario(s, str(path))
        assert "classes" not in path.read_text()
        assert load_scenario(str(path)) == s

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_survives_pickling_read_only(self, protocol):
        pop = flagged_population((1, 0, 1, 1), 2)
        cls = pop.classes
        back = pickle.loads(pickle.dumps(pop, protocol=protocol))
        assert back == pop and "classes" in back.__dict__
        assert np.array_equal(back.classes, cls)
        with pytest.raises(ValueError):
            back.classes[0] = CLASS_NEW

    def test_rebuilt_after_replace(self):
        pop = flagged_population((1, 0, 1), 1)
        assert pop.classes.tolist() == [CLASS_STATIC, CLASS_MOBILE, CLASS_STATIC, CLASS_NEW]
        flipped = dataclasses.replace(pop, mobility_flags=(0, 0, 1))
        assert "classes" not in flipped.__dict__
        assert flipped.classes.tolist() == [
            CLASS_MOBILE, CLASS_MOBILE, CLASS_STATIC, CLASS_NEW,
        ]
        assert pop.classes.tolist() == [CLASS_STATIC, CLASS_MOBILE, CLASS_STATIC, CLASS_NEW]


def rule_case(part, field, changes, message):
    """One validate_scenario rule broken on its own: ``changes`` maps the
    scenario's ``part`` to the fields to replace; ``field`` names the case."""
    return pytest.param(part, changes, message, id=field)


NAN, INF = float("nan"), float("inf")
RULE_CASES = [
    rule_case("radio", "bandwidth", lambda r: {"bandwidth_total_hz": 0.0},
              "radio.bandwidth_total_hz > 0 violated (0.0)"),
    *[rule_case("radio", f, lambda r, f=f, v=v: {f: v},
                "radio.%s must be a finite number (got %r)" % (f, v))
      for f, v in [("noise_power_dbm", NAN), ("tx_power_mobile_dbm", INF),
                   ("tx_power_budget_static_dbm", -INF), ("rate_min_bps", NAN)]],
    *[rule_case("dcf", f, lambda d, f=f: {f: 0.0}, "dcf.%s > 0 violated (0.0)" % f)
      for f in ("sifs_s", "difs_s", "payload_time_s", "pilot_time_s", "data_slot_s",
                "slot_time_s")],
    rule_case("dcf", "prop_delay_s", lambda d: {"prop_delay_s": -1e-6},
              "dcf.prop_delay_s >= 0 violated (-1e-06)"),
    rule_case("population", "flags_length", lambda p: {"mobility_flags": p.mobility_flags[:-1]},
              "mobility_flags length != num_existing"),
    rule_case("population", "flags_values",
              lambda p: {"mobility_flags": (2,) + p.mobility_flags[1:]},
              "population.mobility_flags[0] <= 1 violated (2)"),
    rule_case("population", "positions_length", lambda p: {"positions": p.positions[:-1]},
              "positions length 9 != total users 10"),
    rule_case("ris", "num_ris",
              lambda r: {"num_ris": 0, "positions": (), "subchannel_of_ris": ()},
              "ris.num_ris >= 1 violated (0)"),
    rule_case("ris", "elements_per_ris", lambda r: {"elements_per_ris": 0},
              "ris.elements_per_ris >= 1 violated (0)"),
    rule_case("ris", "ris_positions_length", lambda r: {"positions": r.positions[:-1]},
              "ris positions length != num_ris"),
    rule_case("ris", "subchannel_of_ris_length",
              lambda r: {"subchannel_of_ris": r.subchannel_of_ris[:-1]},
              "subchannel_of_ris length != num_ris"),
    rule_case("compute", "kappa_s_per_op", lambda c: {"kappa_s_per_op": -1e-9},
              "compute.kappa_s_per_op >= 0 violated (-1e-09)"),
    *[rule_case("compute", f, lambda c, f=f: {f: 0}, "compute.%s >= 1 violated (0)" % f)
      for f in ("l1", "l2", "l3")],
]


class TestValidation:
    def test_reference_scenario_is_clean(self):
        assert validate_scenario(default_scenario()).ok

    def test_zero_subchannels_flagged(self):
        s = default_scenario()
        s = dataclasses.replace(s, radio=dataclasses.replace(s.radio, num_subchannels=0))
        report = validate_scenario(s)
        assert not report.ok
        assert any("num_subchannels" in v for v in report.violations)

    @pytest.mark.parametrize("w_min, w_max", [(0, 0), (-1, -64)])
    def test_window_below_one_flagged(self, w_min, w_max):
        # a window of 0 leaves no backoff counter to draw, and the analysis
        # gives tau = 2 from it; its derived w_max passes every other check
        s = default_scenario()
        s = dataclasses.replace(s, dcf=dataclasses.replace(s.dcf, w_min=w_min))
        assert s.dcf.w_max == w_max
        report = validate_scenario(s)
        assert report.violations == ["dcf.w_min >= 1 violated (%d)" % w_min]

    def test_window_too_wide_for_round_keys_flagged(self):
        # a contention draw below w_max * C is off by at most that span over
        # 2^32 of each value's probability; the cap is a span of 2^20
        s = default_scenario()  # C = 2
        wide = dataclasses.replace(s.dcf, w_min=2**15, max_backoff_stage=5)
        report = validate_scenario(dataclasses.replace(s, dcf=wide))
        assert report.violations == ["w_max * num_subchannels <= 2^20 violated (%d * 2)" % 2**20]
        ok = dataclasses.replace(wide, w_min=2**14)
        assert validate_scenario(dataclasses.replace(s, dcf=ok)).ok
        one = dataclasses.replace(
            s, radio=dataclasses.replace(s.radio, num_subchannels=1),
            ris=dataclasses.replace(s.ris, subchannel_of_ris=(0, 0)), dcf=wide,
        )
        assert validate_scenario(one).ok

    def test_position_outside_area_flagged(self):
        pop = build_population(2, (1, 1, 0), positions=[(10.0, 10.0, 0.0), (99.0, 0.0, 0.0)])
        s = dataclasses.replace(default_scenario(total_users=2), population=pop)
        report = validate_scenario(s)
        assert any("outside" in v for v in report.violations)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shared_subchannel_at_m_equals_c_runs(self, seed):
        # both surfaces on subchannel 0 of two: slots and contention live on
        # the one subchannel that carries a surface, as at M != C
        from ris_mac import optimizer as opt
        from ris_mac import simulator as sim
        from ris_mac.experiments import plan_cell

        s = default_scenario(seed=seed)
        s = dataclasses.replace(s, ris=dataclasses.replace(s.ris, subchannel_of_ris=(0, 0)))
        assert validate_scenario(s).ok
        channels, plan = plan_cell(s, seed)
        for mode in sim.MODES:
            frame, alloc = sim.plan_mode(s, channels, plan, mode)
            if mode != "scheme2":
                assert opt.check_allocation(
                    alloc, plan.static_ids, plan.mobile_ids, s.ris.subchannel_of_ris,
                    frame.num_slots, s.radio.p_max_w,
                ) == []
            trace = sim.run_frame(s, channels, frame, alloc, mode, seed, record=True)
            assert {e.channel for e in trace.events if e.kind == "data"} == {0}
            assert trace.served.any()

    def test_report_stringifies(self):
        assert str(validate_scenario(default_scenario())) == "scenario valid"

    @pytest.mark.parametrize("part, changes, message", RULE_CASES)
    def test_each_rule_reports_its_message(self, part, changes, message):
        # one broken rule per case: the report holds exactly its message
        s = default_scenario(total_users=10)
        broken = dataclasses.replace(getattr(s, part), **changes(getattr(s, part)))
        report = validate_scenario(dataclasses.replace(s, **{part: broken}))
        assert report.violations == [message]


class TestPersistence:
    def test_positions_deterministic_per_seed(self):
        a = build_population(20, seed=5)
        b = build_population(20, seed=5)
        assert a.positions == b.positions
        c = build_population(20, seed=6)
        assert a.positions != c.positions

    def test_round_trip(self, tmp_path):
        s = default_scenario(total_users=12, seed=4)
        path = str(tmp_path / "scenario.json")
        save_scenario(s, path)
        back = load_scenario(path)
        assert back == s

    def test_round_trip_without_positions_keeps_the_class_mix(self, tmp_path):
        # a file with no positions draws them, and keeps its own class mix
        s = default_scenario(total_users=40, ratio=(18, 1, 1), seed=4)
        d = s.to_dict()
        d["population"]["positions"] = []
        path = str(tmp_path / "scenario.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(d, f)
        back = load_scenario(path)
        assert back == s
        assert (back.population.num_existing, back.population.num_new_mobile) == (38, 2)

    def test_seed_override(self, tmp_path):
        s = default_scenario(total_users=12, seed=4)
        path = str(tmp_path / "scenario.json")
        save_scenario(s, path)
        back = load_scenario(path, seed_override=77)
        assert back.seed == 77

    def test_dbm_conversions(self):
        r = RadioParams(noise_power_dbm=-94.0, tx_power_mobile_dbm=10.0)
        assert r.noise_w == pytest.approx(10 ** (-9.4) * 1e-3)
        assert r.tx_power_mobile_w == pytest.approx(0.01)
        assert r.subchannel_bw_hz == pytest.approx(10e6)

    def test_dcf_window_defaults_consistent(self):
        d = DcfParams()
        assert d.w_max == d.w_min * 2**d.max_backoff_stage


GOLDEN_C4 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "scenario_c4.json")


class TestSchema:
    """The dataclass fields are the scenario file's schema."""

    @pytest.mark.parametrize("make", [
        default_scenario,
        lambda: default_scenario(total_users=800, ratio=(18, 1, 1)),
        lambda: load_scenario(GOLDEN_C4),
    ], ids=["reference", "static-heavy", "c4"])
    def test_json_round_trip_is_exact(self, make):
        s = make()
        back = scenario_from_dict(json.loads(scenario_to_json(s)))
        assert back == s and scenario_to_json(back) == scenario_to_json(s)

    def test_missing_keys_take_the_field_defaults(self):
        pop = default_scenario(total_users=5).population
        d = {"population": dataclasses.asdict(pop)}
        assert scenario_from_dict(d) == Scenario(population=pop)

    def test_an_int_for_a_float_field_loads_as_a_float(self):
        d = default_scenario(total_users=5).to_dict()
        d["area_side_m"], d["radio"]["carrier_hz"] = 50, 3 * 10**9
        d["dcf"]["sifs_s"] = 10**400  # past the float range: infinite
        s = scenario_from_dict(d)
        assert (type(s.area_side_m), type(s.radio.carrier_hz)) == (float, float)
        assert s.dcf.sifs_s == float("inf")
        assert validate_scenario(s).violations == [
            "dcf.sifs_s must be a finite number (got inf)"]

    def test_not_an_object_at_the_top(self):
        with pytest.raises(ScenarioInvalid, match="^scenario: not an object"):
            scenario_from_dict([1, 2])

    @pytest.mark.parametrize("part, key, value, message", [
        pytest.param("dcf", "max_backoff_stage", -1, "dcf.max_backoff_stage >= 0 violated (-1)",
                     id="dcf-max_backoff_stage--1-max_backoff_stage below 0"),
        ("dcf", "max_backoff_stage", 10**12,
         "dcf.max_backoff_stage <= 20 violated (%d)" % 10**12),
        ("ris", "subchannel_of_ris", (0, "1"),
         "ris.subchannel_of_ris must be a list of integers (got (0, '1'))"),
        ("population", "positions", ((10**400, 1.0, 0.0),) * 5,
         "user 0 position is not three finite coordinates"),
    ])
    def test_value_checks_reject_without_raising(self, part, key, value, message):
        s = default_scenario(total_users=5)
        broken = dataclasses.replace(getattr(s, part), **{key: value})
        report = validate_scenario(dataclasses.replace(s, **{part: broken}))
        assert report.violations == [message]


# int and float fields that declare no range, each with the reason
UNBOUNDED = {
    ("RadioParams", "noise_power_dbm"): "a level in dBm: every value is a power above zero",
    ("RadioParams", "tx_power_mobile_dbm"): "a level in dBm: every value is a power above zero",
    ("RadioParams", "tx_power_budget_static_dbm"):
        "a level in dBm: every value is a power above zero",
    ("RadioParams", "rate_min_bps"): "a floor at or below zero holds for every rate",
    ("RadioParams", "pathloss_exp_los"): "every exponent of the power law is a positive gain",
    ("RadioParams", "pathloss_exp_nlos"): "every exponent of the power law is a positive gain",
    ("RadioParams", "rician_k_factor_db"): "a ratio in dB: every value is a K factor above zero",
    ("RadioParams", "pathloss_ref_db"): "a gain in dB: every value is a gain above zero",
}


def test_every_numeric_field_declares_its_range():
    # a range is declared once, on its field, and validate_scenario checks
    # it; a new int or float field must declare one or join UNBOUNDED
    numeric = [
        (cls.__name__, f)
        for cls in (RadioParams, DcfParams, UserPopulation, RisInventory, ComputeModel, Scenario)
        for f in dataclasses.fields(cls) if f.type in ("int", "float")
    ]
    undeclared = [(cls, f.name) for cls, f in numeric
                  if (cls, f.name) not in UNBOUNDED and not f.metadata.get("range")]
    assert undeclared == []
    assert [(cls, f.name) for cls, f in numeric if (cls, f.name) in UNBOUNDED
            and "range" in f.metadata] == []
    assert set(UNBOUNDED) <= {(cls, f.name) for cls, f in numeric}


class TestFrameAdvance:
    def test_new_users_fold_into_existing(self):
        pop = build_population(20, (5, 4, 1), seed=2)
        nxt = advance_frame(pop, 50.0, seed=3)
        assert nxt.num_existing == pop.num_total
        assert nxt.num_new_mobile == pop.num_new_mobile
        assert nxt.mobility_flags[: pop.num_existing] == pop.mobility_flags
        assert all(u == 0 for u in nxt.mobility_flags[pop.num_existing:])

    def test_budget_provisioning_tracks_static_count(self):
        s50 = default_scenario(total_users=50)
        s200 = default_scenario(total_users=200)
        per_user_50 = s50.radio.p_max_w / 25
        per_user_200 = s200.radio.p_max_w / 100
        assert per_user_50 == pytest.approx(per_user_200, rel=1e-9)
        assert per_user_200 == pytest.approx(s200.radio.tx_power_mobile_w, rel=1e-9)
