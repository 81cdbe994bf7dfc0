"""Frame-engine tests: trace legality, served-once fairness, conservation,
analytic consistency of the scheduled path, and the contention pacing."""

import dataclasses
import os

import numpy as np
import pytest

from ris_mac import channel as chan
from ris_mac import dcf as dcfmod
from ris_mac import simulator as sim
from ris_mac.experiments import plan_cell, run_cell
from ris_mac.optimizer import joint_optimize, retime
from ris_mac.scenario import (
    DcfParams,
    UserPopulation,
    classify_users,
    default_scenario,
    load_scenario,
)

from conftest import composite_gain, guard_shortfall_cell, small_scenario


def planned_frame(scenario, seed, mode="proposed"):
    channels = chan.draw_channels(scenario, seed)
    plan = joint_optimize(scenario, channels)
    frame, alloc = sim.plan_mode(scenario, channels, plan, mode)
    trace = sim.run_frame(scenario, channels, frame, alloc, mode, seed, record=True)
    return channels, plan, frame, alloc, trace


class TestBackoff:
    def test_window_doubles_and_caps(self):
        # eight collisions in a row walk the table and then stay on its last stage
        dcf = DcfParams(w_min=15, w_max=960, max_backoff_stage=6)
        table = sim.window_table(dcf)
        sizes = [table[min(collided, dcf.max_backoff_stage)] for collided in range(8)]
        assert sizes == [15, 30, 60, 120, 240, 480, 960, 960]
        assert len(table) == dcf.max_backoff_stage + 1

    def test_resolve_backoff_unique_min_wins(self):
        users, counters = np.array([3, 7, 9]), np.array([5, 2, 4])
        occupied, lead, collided, tied = sim.resolve_backoff(np.zeros(3, dtype=int), counters, 960)
        assert occupied == [0] and not collided[0]
        assert users[lead[0]] == 7 and users[tied].tolist() == []

    def test_resolve_backoff_tie_collides(self):
        users, counters = np.array([3, 7, 9]), np.array([2, 2, 4])
        occupied, lead, collided, tied = sim.resolve_backoff(np.zeros(3, dtype=int), counters, 960)
        assert occupied == [0] and collided[0]
        assert users[tied].tolist() == [3, 7]

    def test_resolve_backoff_every_channel_at_once(self):
        # channel 2 has a unique minimum, channel 0 a three-way tie, channel 1
        # is empty; a counter at the window cap never spills into channel 3
        pick = np.array([2, 0, 0, 2, 0, 3, 0])
        counters = np.array([4, 1, 1, 9, 3, 959, 1])
        occupied, lead, collided, tied = sim.resolve_backoff(pick, counters, 960)
        assert occupied == [0, 2, 3]
        assert lead == [1, 0, 5]
        assert collided == [True, False, False]
        assert tied == [1, 2, 6]

    def test_array_draws_equal_scalar_draws(self):
        # a round's picks and counters are one array draw, whose stream is
        # that of per-user draws in sorted-id order only while numpy consumes
        # the bit stream the same way for both; WordTape.integers and the
        # reference loop in contention_oracle.py both rest on this
        meta = np.random.default_rng(2024)
        for _ in range(300):
            n = int(meta.integers(1, 40))
            highs = meta.integers(1, 961, size=n)
            highs[meta.random(n) < 0.25] = 1
            num_channels = int(meta.integers(1, 5))
            seed = int(meta.integers(2**32))
            vec, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            picks = vec.integers(0, num_channels, size=n)
            counters = vec.integers(0, highs)
            want_picks = [int(ref.integers(0, num_channels)) for _ in range(n)]
            want_counters = [int(ref.integers(0, int(h))) for h in highs]
            cause = "numpy %s: array and scalar Generator.integers draws differ" % np.__version__
            assert picks.tolist() == want_picks, cause
            assert counters.tolist() == want_counters, cause
            assert vec.bit_generator.state == ref.bit_generator.state, cause

    def test_merged_draw_equals_two_calls(self):
        # a round draws its picks and counters from one bounds array, C_s
        # per contender followed by the windows, while the reference loop
        # makes a picks call then a counters call; the two agree only while
        # numpy's merged and split draws agree, value for value and state
        # for state
        meta = np.random.default_rng(2025)
        cases = [(1, 1, np.ones(1, dtype=int)), (200, 4, np.full(200, 960)),
                 (200, 1, np.ones(200, dtype=int))]
        for _ in range(400):
            n = int(meta.integers(1, 201))
            windows = meta.integers(1, 961, size=n)
            windows[meta.random(n) < 0.25] = 1
            cases.append((n, int(meta.integers(1, 5)), windows))
        for n, num_channels, windows in cases:
            seed = int(meta.integers(2**32))
            merged, split = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = merged.integers(0, np.concatenate((np.full(n, num_channels), windows)))
            picks = split.integers(0, num_channels, size=n)
            counters = split.integers(0, windows)
            cause = "numpy %s: merged and split Generator.integers draws differ" % np.__version__
            assert draws[:n].tolist() == picks.tolist(), cause
            assert draws[n:].tolist() == counters.tolist(), cause
            assert merged.bit_generator.state == split.bit_generator.state, cause

    def test_permutation_of_zero_or_one_draws_no_bits(self):
        # WordTape.permutation(0) and (1) take no word, and the reference
        # loop calls Generator.permutation on every round; the two streams
        # agree only while these calls consume nothing
        cause = "numpy %s: Generator.permutation(%d) consumed bits"
        for size in (0, 1):
            rng = np.random.default_rng(2026)
            before = rng.bit_generator.state
            assert rng.permutation(size).tolist() == list(range(size))
            assert rng.bit_generator.state == before, cause % (np.__version__, size)
        rng = np.random.default_rng(2026)
        before = rng.bit_generator.state
        rng.permutation(2)
        assert rng.bit_generator.state != before

    def test_collision_appears_with_tied_draws(self):
        # two mobile users on a single subchannel: scan seeds until their
        # first counter draws tie, then the trace must carry a collision
        # and the colliders' windows must have doubled
        s = small_scenario(total_users=2, ratio=(0, 1, 0), num_ris=1, elements=4)
        found = False
        for seed in range(60):
            _, _, _, _, trace = planned_frame(s, seed)
            if any(e.kind == "collision" for e in trace.events):
                found = True
                break
        assert found, "no tie in 60 seeds despite W=15 windows"


# bounds where Lemire's rule behaves differently: every power of two (no
# rejection), 3 * 2^29 (a quarter of all words rejected) and 2^31 - 1
SPECIAL_BOUNDS = [2**e for e in range(32)] + [3 * 2**29, 2**31 - 1]


def random_bound(meta) -> int:
    if meta.random() < 0.3:
        return int(meta.choice(SPECIAL_BOUNDS))
    return int(meta.integers(1, 961))


class TestWordTape:
    def random_calls(self, meta, ones: bool) -> list:
        """An interleaving of the tape's three draws with random arguments;
        with ``ones``, a quarter of the array bounds are 1."""
        calls = []
        for _ in range(int(meta.integers(1, 12))):
            kind = ("integers", "below", "permutation")[int(meta.integers(3))]
            if kind == "integers":
                n = int(meta.integers(1, 40))
                bounds = np.array([random_bound(meta) for _ in range(n)], dtype=np.uint64)
                if ones:
                    bounds[meta.random(n) < 0.25] = 1
                calls.append((kind, bounds))
            elif kind == "below":
                calls.append((kind, random_bound(meta)))
            else:
                calls.append((kind, int(meta.integers(5))))
        return calls

    def test_draws_equal_generator_draws(self):
        meta = np.random.default_rng(2027)
        cause = "numpy %s: word tape and Generator draws differ" % np.__version__
        for case in range(400):
            calls = self.random_calls(meta, ones=case % 2 == 1)
            values = set().union(*(arg.tolist() for kind, arg in calls if kind == "integers"))
            seed = int(meta.integers(2**32))
            tape = sim.WordTape(np.random.default_rng(seed), values or {2})
            ref = np.random.default_rng(seed)
            for kind, arg in calls:
                if kind == "integers":
                    got = tape.integers(arg)
                    assert got.dtype == np.int64, cause
                    assert got.tolist() == ref.integers(0, arg.astype(np.int64)).tolist(), cause
                elif kind == "below":
                    assert tape.below(arg) == int(ref.integers(0, arg)), cause
                else:
                    assert tape.permutation(arg) == ref.permutation(arg).tolist(), cause
            # the draws after the sequence agree too, so both consumed the
            # same words
            after = [2**31 - 1, 960, 3 * 2**29, 7]
            want = [int(ref.integers(0, b)) for b in after]
            assert [tape.below(b) for b in after] == want, cause

    def test_needs_a_pcg64_with_no_buffered_half_word(self):
        rng = np.random.default_rng(1)
        rng.integers(0, 10)  # one 32-bit word: the other half stays buffered
        with pytest.raises(ValueError, match="half-word"):
            sim.WordTape(rng, [10])
        with pytest.raises(ValueError, match="PCG64"):
            sim.WordTape(np.random.Generator(np.random.MT19937(1)), [10])


class TestScheduledPeriod:
    def test_no_mobile_users_means_no_rts(self):
        s = small_scenario(total_users=6, ratio=(1, 0, 0))
        _, _, _, _, trace = planned_frame(s, 1)
        assert not any(e.kind == "rts" for e in trace.events)
        assert trace.throughput_contended_bps == 0.0

    def test_measured_matches_analytic_scheduled_throughput(self):
        s = small_scenario(total_users=8, seed=5)
        _, plan, frame, _, trace = planned_frame(s, 5)
        assert trace.throughput_scheduled_bps == pytest.approx(
            plan.throughput_scheduled_bps, rel=1e-9
        )

    @pytest.mark.parametrize("mode", ["proposed", "scheme1"])
    def test_delivered_bits_use_the_aligned_amplitude(self, mode):
        # the frames read the cached amplitude; the explicit optimal phases
        # that acceptance criterion 1 checks give the same rate
        s = default_scenario()
        channels, _, _, alloc, trace = planned_frame(s, 1, mode=mode)
        radio, slot_s = s.radio, s.dcf.data_slot_s
        granted = {e.user for e in trace.events if e.kind == "slot-grant"}
        data = [e for e in trace.events if e.kind == "data" and e.user in granted]
        assert len(data) == len(granted) > 0
        for e in data:
            k, m, rho = e.user, e.ris, float(alloc.rho_sq_w[e.user])
            snr = chan.amplitude_snr(channels.aligned_amplitude[k, m], rho, radio.noise_w)
            assert e.value == slot_s * chan.rate_bps(snr, radio.subchannel_bw_hz)
            r, h, g = channels.r[k], channels.h[k, m], channels.g[k, m]
            phased = chan.amplitude_snr(
                abs(composite_gain(r, h, g, chan.align_phases(r, h, g))), rho, radio.noise_w
            )
            assert e.value == pytest.approx(
                slot_s * chan.rate_bps(phased, radio.subchannel_bw_hz), rel=1e-12
            )

    def test_no_scheduled_collisions(self):
        s = small_scenario(total_users=10, seed=6)
        _, _, frame, _, trace = planned_frame(s, 6)
        sched_end = frame.t0_s + frame.t1_s + frame.scheduled_s
        seen = set()
        for e in trace.events:
            if e.kind == "data" and e.time_s < sched_end:
                key = (e.channel, round(e.time_s, 12))
                assert key not in seen
                seen.add(key)


class TestContendedPeriod:
    def test_served_once(self):
        s = small_scenario(total_users=10, seed=7)
        _, _, _, _, trace = planned_frame(s, 7)
        counts = {}
        for e in trace.events:
            if e.kind == "data":
                counts[e.user] = counts.get(e.user, 0) + 1
        assert all(v == 1 for v in counts.values())
        assert trace.served.all()

    def test_dcf_legality_of_successful_handshakes(self):
        s = small_scenario(total_users=10, seed=8)
        _, _, frame, _, trace = planned_frame(s, 8)
        d = s.dcf
        rts_s = d.rts_bytes * 8 / d.control_rate_bps
        cts_s = d.cts_bytes * 8 / d.control_rate_bps
        sched_end = frame.t0_s + frame.t1_s + frame.scheduled_s
        rts_at = {}
        cts_at = {}
        for e in trace.events:
            if e.kind == "rts":
                rts_at.setdefault((e.user, e.channel), []).append(e.time_s)
            if e.kind == "cts":
                cts_at[(e.user, e.channel)] = e.time_s
        for e in trace.events:
            if e.kind != "data" or e.time_s < sched_end:
                continue
            key = (e.user, e.channel)
            assert key in cts_at
            t_cts = cts_at[key]
            assert e.time_s == pytest.approx(t_cts + cts_s + d.sifs_s, abs=1e-12)
            t_rts_want = t_cts - d.sifs_s - rts_s
            assert any(abs(t - t_rts_want) < 1e-12 for t in rts_at[key])
            # the handshake starts one DIFS after its round boundary
            round_start = t_rts_want - d.difs_s
            offset = (round_start - sched_end) / dcfmod.handshake_time(d)
            assert offset == pytest.approx(round(offset), abs=1e-6)

    def test_conservation_bits_equal_per_user_sums(self):
        s = small_scenario(total_users=10, seed=9)
        _, _, _, _, trace = planned_frame(s, 9)
        from_events = sum(e.value for e in trace.events if e.kind == "data")
        assert from_events == pytest.approx(trace.bits.sum(), rel=1e-12)
        d = s.dcf
        for k, b in enumerate(trace.bits):
            if not trace.served[k]:
                assert b == 0.0

    def test_event_times_nondecreasing_and_span_frame(self):
        s = small_scenario(total_users=10, seed=10)
        _, _, frame, _, trace = planned_frame(s, 10)
        times = [e.time_s for e in trace.events]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(frame.total_s)

    def test_rounds_match_analytic_cascade(self):
        s = small_scenario(total_users=20, ratio=(1, 1, 0), seed=11, elements=16)
        for seed in range(12):
            _, plan, _, _, trace = planned_frame(s, seed)
            assert abs(trace.n_r_measured - plan.cascade.n_r) <= 1

    def test_contended_throughput_tracks_realized_rates(self):
        s = small_scenario(total_users=12, seed=12)
        _, plan, frame, _, trace = planned_frame(s, 12)
        d = s.dcf
        realized = sum(
            e.value for e in trace.events
            if e.kind == "data" and e.time_s >= frame.t0_s + frame.t1_s + frame.scheduled_s
        )
        assert trace.throughput_contended_bps == pytest.approx(
            realized / frame.contended_s, rel=1e-12
        )

    def test_split_below_optimum_leaves_users_unserved(self):
        s = small_scenario(total_users=20, ratio=(1, 1, 0), seed=13, elements=16)
        ch = chan.draw_channels(s, 13)
        plan = joint_optimize(s, ch)
        r_star = plan.frame.beta / plan.frame.alpha
        below = retime(plan, s, ch, 0.6 * r_star)
        trace = sim.run_frame(s, ch, below.frame, below.allocation, "proposed", 13)
        assert not trace.served.all()
        at = retime(plan, s, ch, r_star)
        trace_at = sim.run_frame(s, ch, at.frame, at.allocation, "proposed", 13)
        assert trace_at.served.all()

    def test_contenders_left_counts_the_unserved(self):
        s = small_scenario(total_users=20, ratio=(1, 1, 0), seed=13, elements=16)
        ch = chan.draw_channels(s, 13)
        plan = joint_optimize(s, ch)
        r_star = plan.frame.beta / plan.frame.alpha
        _, contenders = classify_users(s.population)
        below = retime(plan, s, ch, 0.6 * r_star)
        trace = sim.run_frame(s, ch, below.frame, below.allocation, "proposed", 13)
        assert trace.contenders_left > 0
        assert int(trace.served[contenders].sum()) + trace.contenders_left == len(contenders)
        at = retime(plan, s, ch, r_star)
        trace_at = sim.run_frame(s, ch, at.frame, at.allocation, "proposed", 13)
        assert trace_at.contenders_left == 0


    def test_grant_shortfall_is_handed_back(self, monkeypatch):
        # every user senses subchannel 0 as best (the surface on subchannel 1
        # reflects nothing), while the recursion asks for C * P_ch = 2 serves
        # a round: one channel is occupied, so each round grants one user
        s = small_scenario(total_users=8, seed=22, elements=4)
        s = dataclasses.replace(s, csi_best_channel=True)
        ch = chan.draw_channels(s, 22)
        h = ch.h.copy()
        h[:, list(s.ris.subchannel_of_ris).index(1), :] = 0.0
        ch = chan.ChannelRealization(g=ch.g, h=h, r=ch.r)
        frame, alloc = sim.plan_scheme2(s, 50 * dcfmod.handshake_time(s.dcf))
        monkeypatch.setattr(dcfmod, "round_params", lambda n, c, w, l: (0.1, 0.0, 1.0))
        trace = sim.run_frame(s, ch, frame, alloc, "scheme2", 22, record=True)
        assert trace.grant_shortfall > 0
        assert int(trace.served.sum()) + trace.contenders_left == s.population.num_total
        assert trace.served.all()
        assert {e.channel for e in trace.events if e.kind == "data"} == {0}

    @pytest.mark.parametrize("total_users", [3, 4, 6])
    def test_guard_shortfall_carries_to_the_next_round(self, total_users):
        # a forced guard round asks for two serves and one channel is
        # occupied: the serve left over is granted the next round, not
        # handed back to wait for the next guard firing 50 rounds later
        s, ch, frame, alloc, n_r = guard_shortfall_cell(total_users)
        trace = sim.run_frame(s, ch, frame, alloc, "scheme2", 22)
        assert trace.grant_shortfall > 0
        assert trace.served.all() and trace.contenders_left == 0
        assert trace.n_r_measured <= n_r + 1

    def test_scheme2_runs_past_the_cascade_round_cap(self):
        # every one of 700 users contends on one surface: the closed form
        # needs more than CASCADE_ROUND_CAP rounds, but the frame draws only
        # the rounds its budget holds
        s = small_scenario(total_users=700, num_ris=1, elements=4, seed=5)
        with pytest.raises(dcfmod.CascadeError):
            dcfmod.contention_cascade(700, 1, s.dcf)
        row = run_cell(s, "scheme2", 5)
        assert 0 < row["n_r_measured"] < dcfmod.CASCADE_ROUND_CAP
        assert 0 < row["served_mobile"] < 1


def old_period_lengths(frame, mode):
    """(scheduled length, contention offset, contention budget) as run_frame
    derived them from the mode name before it read them all from the frame."""
    sched_len = frame.scheduled_s if mode == "proposed" else frame.t2_s
    offset = frame.scheduled_s if mode != "scheme2" else 0.0
    budget = frame.contended_s if mode != "scheme2" else frame.t2_s
    return sched_len, offset, budget


GOLDEN_C4 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "scenario_c4.json")


class TestModes:
    def test_plan_mode_rejects_unknown_mode(self):
        s = small_scenario(total_users=6, seed=17)
        channels, plan = plan_cell(s, 17)
        with pytest.raises(sim.ModeMismatchError):
            sim.plan_mode(s, channels, plan, "scheme3")

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("mode", sim.MODES)
    @pytest.mark.parametrize("network", ["reference", "c4"])
    def test_frame_carries_the_mode_split(self, network, mode, seed):
        # run_frame takes every period length from the frame; exact equality
        # with the old per-mode expressions is what lets it ignore the mode
        s = default_scenario(seed=seed) if network == "reference" else load_scenario(GOLDEN_C4)
        channels, plan = plan_cell(s, seed)
        frame, alloc = sim.plan_mode(s, channels, plan, mode)
        t2 = plan.frame.t2_s
        assert frame.t2_s == t2
        if mode == "proposed":
            assert frame is plan.frame and alloc is plan.allocation
        elif mode == "scheme1":
            assert frame.scheduled_s == t2 and frame.contended_s == 0.0
        else:
            assert frame.scheduled_s == 0.0 and frame.contended_s == t2
        sched_len, offset, budget = old_period_lengths(frame, mode)
        if mode != "scheme2":  # scheme 2 schedules no one, so its length went unread
            assert frame.scheduled_s == sched_len
        assert frame.scheduled_s == offset and frame.contended_s == budget

    def test_scheme1_excludes_new_users(self):
        s = small_scenario(total_users=10, ratio=(5, 3, 2), seed=14)
        _, _, _, _, trace = planned_frame(s, 14, mode="scheme1")
        fairness = sim.measure_fairness([trace])
        assert fairness["new"] == 0.0
        assert fairness["static"] == 1.0
        assert trace.n_r_measured == 0

    def test_scheme2_everyone_contends(self):
        s = small_scenario(total_users=10, seed=15)
        _, _, frame, _, trace = planned_frame(s, 15, mode="scheme2")
        assert frame.t0_s == 0.0 and frame.t1_s == 0.0
        sched = [e for e in trace.events if e.kind == "slot-grant"]
        assert sched == []

    def test_scheme1_truncates_when_transmission_period_short(self):
        # a common transmission period shorter than scheme 1's slot demand
        # leaves the overflow users unserved instead of overrunning
        s = small_scenario(total_users=12, ratio=(1, 1, 0), seed=20)
        ch = chan.draw_channels(s, 20)
        frame, alloc = sim.plan_scheme1(s, ch, t2_common=2 * s.dcf.data_slot_s)
        trace = sim.run_frame(s, ch, frame, alloc, "scheme1", 20, record=True)
        assert trace.served.sum() == 4  # 2 slots on each of 2 subchannels
        assert max(e.time_s for e in trace.events) == pytest.approx(frame.total_s)
        # the grants past the period are counted, not silently skipped
        assert trace.grants_dropped == s.population.num_existing - int(trace.served.sum())
        full, alloc = sim.plan_scheme1(s, ch, t2_common=frame.num_slots * s.dcf.data_slot_s)
        assert sim.run_frame(s, ch, full, alloc, "scheme1", 20).grants_dropped == 0

    def test_mode_allocation_mismatch_rejected(self):
        s = small_scenario(total_users=6, seed=16)
        ch = chan.draw_channels(s, 16)
        plan = joint_optimize(s, ch)
        frame, alloc = sim.plan_scheme2(s, plan.frame.t2_s)
        with pytest.raises(sim.ModeMismatchError):
            sim.run_frame(s, ch, frame, alloc, "scheme1", 16)

    def test_unknown_mode_rejected(self):
        s = small_scenario(total_users=6, seed=17)
        ch = chan.draw_channels(s, 17)
        plan = joint_optimize(s, ch)
        with pytest.raises(sim.ModeMismatchError):
            sim.run_frame(s, ch, plan.frame, plan.allocation, "scheme3", 17)


class TestUserClasses:
    @pytest.mark.parametrize("flags, num_new", [
        ((0, 1, 0, 1), 3), ((1, 0, 0, 1, 1), 0), ((), 2), ((1, 1), 1),
    ])
    def test_class_vector_matches_per_user_reference(self, flags, num_new):
        pop = UserPopulation(
            num_existing=len(flags), num_new_mobile=num_new, mobility_flags=flags,
            positions=((1.0, 1.0, 0.0),) * (len(flags) + num_new),
        )
        s = dataclasses.replace(default_scenario(), population=pop)
        want = [sim.CLASS_STATIC if u == 1 else sim.CLASS_MOBILE for u in flags]
        want += [sim.CLASS_NEW] * num_new
        got = sim.user_classes(s)
        assert got.tolist() == want
        assert got.dtype == np.array([0]).dtype


class TestChannelSensing:
    def test_csi_best_selection_still_serves_everyone(self):
        s = small_scenario(total_users=12, seed=21, elements=16)
        ch = chan.draw_channels(s, 21)
        plan = joint_optimize(s, ch)
        base = sim.run_frame(s, ch, plan.frame, plan.allocation, "proposed", 21)
        s_csi = dataclasses.replace(s, csi_best_channel=True)
        csi = sim.run_frame(s_csi, ch, plan.frame, plan.allocation, "proposed", 21)
        assert base.served.all() and csi.served.all()
        # sensing the better channel can only help the realized rates here
        assert csi.throughput_contended_bps >= base.throughput_contended_bps


class TestMeasureThroughput:
    def test_empty_trace_yields_zeros(self):
        import numpy as np

        from ris_mac import optimizer as opt

        frame = opt.FrameConfig(
            t0_s=1e-3, t1_s=1e-3, t2_s=1.0, alpha=0.5, beta=0.5,
            num_slots=1, data_slot_s=0.5,
        )
        trace = sim.FrameTrace(
            mode="proposed", frame=frame, events=[],
            served=np.zeros(3, dtype=bool), bits=np.zeros(3),
            class_of_user=np.zeros(3, dtype=int), n_r_measured=0, collisions=0,
        )
        assert sim.measure_throughput(trace, frame) == (0.0, 0.0, 0.0)


class TestFairnessMeasure:
    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            sim.measure_fairness([])

    def test_proposed_reference_serves_everyone(self):
        s = small_scenario(total_users=12, seed=18)
        traces = [planned_frame(s, seed)[4] for seed in (18, 19)]
        fairness = sim.measure_fairness(traces)
        assert fairness == {"static": 1.0, "mobile": 1.0, "new": 1.0}

    def test_run_cell_columns(self):
        s = small_scenario(total_users=8, seed=19)
        cell = run_cell(s, "proposed", 19)
        assert cell["served_static"] == 1.0
        assert cell["n_r_measured"] == cell["n_r_analytic"]
        assert cell["s_o_bps"] > 0
