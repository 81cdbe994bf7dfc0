"""Scenario construction, classification, validation, and persistence."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_mac.scenario import (
    CLASS_MOBILE,
    CLASS_NEW,
    CLASS_STATIC,
    DcfParams,
    RadioParams,
    UserPopulation,
    advance_frame,
    build_population,
    classify_users,
    default_scenario,
    load_scenario,
    save_scenario,
    user_classes,
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
        assert static == [] and mobile == []

    def test_explicit_flags(self):
        pop = UserPopulation(
            num_existing=3,
            num_new_mobile=2,
            mobility_flags=(1, 0, 1),
            positions=tuple((float(i), 0.0, 0.0) for i in range(5)),
        )
        static, mobile = classify_users(pop)
        assert static == [0, 2]
        assert mobile == [1, 3, 4]  # new users appended with fresh ids

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
        assert sorted(static + mobile) == list(range(k + z))
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
        got = user_classes(flagged_population(flags, num_new))
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
        assert user_classes(pop).tolist() == want
        static_ids = [k for k, u in enumerate(flags) if u == 1]
        mobile_ids = [k for k, u in enumerate(flags) if u == 0]
        mobile_ids += list(range(len(flags), len(flags) + num_new))
        static, mobile = classify_users(pop)
        assert (static, mobile) == (static_ids, mobile_ids)
        assert all(type(k) is int for k in static + mobile)


def rule_case(part, field, changes, message):
    """One validate_scenario rule broken on its own: ``changes`` maps the
    scenario's ``part`` to the fields to replace; ``field`` names the case."""
    return pytest.param(part, changes, message, id=field)


NAN, INF = float("nan"), float("inf")
RULE_CASES = [
    rule_case("radio", "bandwidth", lambda r: {"bandwidth_total_hz": 0.0},
              "bandwidth_total_hz > 0 violated"),
    *[rule_case("radio", f, lambda r, f=f, v=v: {f: v}, "%s must be finite" % f)
      for f, v in [("noise_power_dbm", NAN), ("tx_power_mobile_dbm", INF),
                   ("tx_power_budget_static_dbm", -INF), ("rate_min_bps", NAN)]],
    *[rule_case("dcf", f, lambda d, f=f: {f: 0.0}, "%s > 0 violated" % f)
      for f in ("sifs_s", "difs_s", "payload_time_s", "pilot_time_s", "data_slot_s",
                "slot_time_s")],
    rule_case("dcf", "prop_delay_s", lambda d: {"prop_delay_s": -1e-6},
              "prop_delay_s >= 0 violated"),
    rule_case("population", "flags_length", lambda p: {"mobility_flags": p.mobility_flags[:-1]},
              "mobility_flags length != num_existing"),
    rule_case("population", "flags_values",
              lambda p: {"mobility_flags": (2,) + p.mobility_flags[1:]},
              "mobility_flags must be 0/1"),
    rule_case("population", "positions_length", lambda p: {"positions": p.positions[:-1]},
              "positions length 9 != total users 10"),
    rule_case("ris", "num_ris",
              lambda r: {"num_ris": 0, "positions": (), "subchannel_of_ris": ()},
              "num_ris >= 1 violated"),
    rule_case("ris", "elements_per_ris", lambda r: {"elements_per_ris": 0},
              "elements_per_ris >= 1 violated (N=0)"),
    rule_case("ris", "ris_positions_length", lambda r: {"positions": r.positions[:-1]},
              "ris positions length != num_ris"),
    rule_case("ris", "subchannel_of_ris_length",
              lambda r: {"subchannel_of_ris": r.subchannel_of_ris[:-1]},
              "subchannel_of_ris length != num_ris"),
    rule_case("compute", "kappa_s_per_op", lambda c: {"kappa_s_per_op": -1e-9},
              "kappa_s_per_op >= 0 violated"),
    *[rule_case("compute", f, lambda c, f=f: {f: 0}, "iteration caps l1/l2/l3 >= 1 violated")
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

    def test_window_ordering_flagged(self):
        s = default_scenario()
        s = dataclasses.replace(
            s, dcf=dataclasses.replace(s.dcf, w_min=64, w_max=32, max_backoff_stage=1)
        )
        report = validate_scenario(s)
        assert any("w_min" in v for v in report.violations)

    @pytest.mark.parametrize("w_min, w_max", [(0, 0), (0, 64), (-1, -64)])
    def test_window_below_one_flagged(self, w_min, w_max):
        # a window of 0 leaves no backoff counter to draw, and the analysis
        # gives tau = 2 from it; w = w_max = 0 passes every other check
        s = default_scenario()
        s = dataclasses.replace(s, dcf=dataclasses.replace(s.dcf, w_min=w_min, w_max=w_max))
        report = validate_scenario(s)
        assert "w_min >= 1 violated (w_min=%d)" % w_min in report.violations

    def test_window_too_wide_for_round_keys_flagged(self):
        # a contention draw below w_max * C is off by at most that span over
        # 2^32 of each value's probability; the cap is a span of 2^20
        s = default_scenario()  # C = 2
        wide = dataclasses.replace(s.dcf, w_min=2**15, w_max=2**20, max_backoff_stage=5)
        report = validate_scenario(dataclasses.replace(s, dcf=wide))
        assert report.violations == ["w_max * num_subchannels <= 2^20 violated (%d * 2)" % 2**20]
        ok = dataclasses.replace(wide, w_min=2**14, w_max=2**19)
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
