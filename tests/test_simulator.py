"""Frame-engine tests: trace legality, served-once fairness, conservation,
analytic consistency of the scheduled path, and the contention pacing."""

import dataclasses
import functools
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_mac import channel as chan
from ris_mac import dcf as dcfmod
from ris_mac import optimizer as opt
from ris_mac import simulator as sim
from ris_mac.experiments import parse_sweep, plan_cell, run_cell, run_experiment
from ris_mac.optimizer import joint_optimize, retime
from ris_mac.scenario import (
    CLASS_MOBILE,
    CLASS_NEW,
    CLASS_STATIC,
    DcfParams,
    RadioParams,
    classify_users,
    default_scenario,
    load_scenario,
)

from conftest import composite_gain, guard_shortfall_cell, small_scenario
import oracles


def planned_frame(scenario, seed, mode="proposed"):
    channels = chan.draw_channels(scenario, seed)
    plan = joint_optimize(scenario, channels)
    frame, alloc = sim.plan_mode(scenario, channels, plan, mode)
    trace = sim.run_frame(scenario, channels, frame, alloc, mode, seed, record=True)
    return channels, plan, frame, alloc, trace


def resolve(pick, counters, num_channels, n0=None, drawn=True):
    """sim.resolve_round on the keys (v << 32) | term of contenders listed
    by index; n0 defaults to their count.  With drawn picks v is
    counter * C + pick and the term is the index; with fixed picks v is
    the counter and the term index + n0 * pick."""
    n0 = len(counters) if n0 is None else n0
    counters = np.asarray(counters, dtype=np.int64)
    pick = np.asarray(pick, dtype=np.int64)
    index = np.arange(len(counters), dtype=np.int64)
    if drawn:
        keys = ((counters * num_channels + pick) << 32) | index
        return sim.resolve_round(keys, num_channels, n0, num_channels)
    keys = (counters << 32) | (index + n0 * pick)
    return sim.resolve_round(keys, num_channels, n0, 1)


def per_channel_reference(pick, counters, num_channels) -> tuple:
    """(occupied, lead, collided, tied) found one channel at a time; tied
    users are listed in channel order."""
    occupied, lead, collided, tied = [], [], [], []
    for c in range(num_channels):
        here = np.flatnonzero(pick == c)
        if here.size:
            at_min = here[counters[here] == counters[here].min()].tolist()
            occupied.append(c)
            lead.append(at_min[0])
            collided.append(len(at_min) > 1)
            tied.extend(at_min if len(at_min) > 1 else [])
    return occupied, lead, collided, tied


class TestBackoff:
    def test_window_doubles_and_caps(self):
        # eight collisions in a row walk the table and then stay on its last stage
        dcf = DcfParams(w_min=15, w_max=960, max_backoff_stage=6)
        table = sim.window_table(dcf)
        sizes = [table[min(collided, dcf.max_backoff_stage)] for collided in range(8)]
        assert sizes == [15, 30, 60, 120, 240, 480, 960, 960]
        assert len(table) == dcf.max_backoff_stage + 1

    def test_resolve_round_unique_min_wins(self):
        users, counters = np.array([3, 7, 9]), np.array([5, 2, 4])
        occupied, lead, collided, tied = resolve(np.zeros(3, dtype=int), counters, 1)
        assert occupied == [0] and not collided[0]
        assert users[lead[0]] == 7 and users[tied].tolist() == []

    def test_resolve_round_tie_collides(self):
        users, counters = np.array([3, 7, 9]), np.array([2, 2, 4])
        occupied, lead, collided, tied = resolve(np.zeros(3, dtype=int), counters, 1)
        assert occupied == [0] and collided[0]
        assert users[tied].tolist() == [3, 7]

    def test_resolve_round_every_channel_at_once(self):
        # channel 2 has a unique minimum, channel 0 a three-way tie, channel 1
        # is empty; a counter at the window cap sorts last on channel 3
        pick = np.array([2, 0, 0, 2, 0, 3, 0])
        counters = np.array([4, 1, 1, 9, 3, 959, 1])
        occupied, lead, collided, tied = resolve(pick, counters, 4)
        assert occupied == [0, 2, 3]
        assert lead == [1, 0, 5]
        assert collided == [True, False, False]
        assert tied == [1, 2, 6]

    def test_resolve_round_reads_past_the_head_when_a_channel_is_empty(self):
        # channel 1 of 3 is empty, so no head settles the round, and channel
        # 2's minimum sits behind every key of channel 0
        n = 3 * sim.HEAD
        pick = np.where(np.arange(n) < n - 1, 0, 2)
        counters = np.arange(n) % 5
        counters[-1] = 7
        for drawn in (True, False):
            occupied, lead, collided, tied = resolve(pick, counters, 3, drawn=drawn)
            assert occupied == [0, 2]
            assert lead == [0, n - 1]
            assert collided == [True, False]
            assert tied == list(range(0, n - 1, 5))
            assert (occupied, lead, collided, tied) == per_channel_reference(pick, counters, 3)

    def test_resolve_round_minimum_run_longer_than_the_head(self):
        # a minimum run on channel 0 that is longer than the head, then one
        # on channel 1 that starts inside the head and ends past it, each
        # followed by later keys of both channels
        n0 = 3 * sim.HEAD
        for run0, count1 in ((sim.HEAD + 4, 3), (sim.HEAD // 2, 0)):
            run1 = sim.HEAD
            pick = np.array([0] * run0 + [1] * run1 + [0, 1] * 4)
            counters = np.array([0] * run0 + [count1] * run1 + [1, 4] * 4)
            for drawn in (True, False):
                occupied, lead, collided, tied = resolve(pick, counters, 2, n0, drawn)
                assert occupied == [0, 1] and collided == [True, True]
                assert lead == [0, run0]
                assert tied == list(range(run0 + run1))
                assert (occupied, lead, collided, tied) == per_channel_reference(pick, counters, 2)

    def test_resolve_round_on_one_channel(self):
        # with C_s = 1 every pick is 0 (v % 1, for a draw v below the window),
        # so the key is (counter << 32) | index
        counters = np.array([6, 2, 9, 2, 2])
        occupied, lead, collided, tied = resolve(np.zeros(5, dtype=int), counters, 1)
        assert (occupied, lead, collided, tied) == ([0], [1], [True], [1, 3, 4])
        counters[3:] = 8
        assert resolve(np.zeros(5, dtype=int), counters, 1) == ([0], [1], [False], [])

    def test_one_channel_round_draws_no_pick(self, monkeypatch):
        # on one subchannel each contender's span is its window alone: a
        # round reads one word per contender, in index order, and its key's
        # high word, the counter, is the word times its window shifted down
        # 32 bits.  One channel means no shuffle word, so the only other
        # word a round reads is the re-draw of a collided channel it grants
        s = small_scenario(total_users=12, ratio=(0, 1, 0), num_ris=1, elements=4)
        channels = chan.draw_channels(s, 5)
        plan = joint_optimize(s, channels)
        keyed = []
        resolve_round = sim.resolve_round

        def spy_resolve(keys, num_channels, n0, per_counter):
            keys_in = keys.tolist()
            found = resolve_round(keys, num_channels, n0, per_counter)
            keyed.append((keys_in, n0, per_counter, found))
            return found

        monkeypatch.setattr(sim, "resolve_round", spy_resolve)
        trace = sim.run_frame(s, channels, plan.frame, plan.allocation, "proposed", 5)
        windows = sim.window_table(s.dcf)
        n0 = s.population.num_total
        assert trace.served.all() and len(keyed) == trace.n_r_measured
        raw = np.random.default_rng(5).bit_generator.random_raw(10_000)
        stream = (raw >> np.uint64(32)).tolist()
        # the first round's spans are all the stage-0 window
        assert [k >> 32 for k in keyed[0][0]] == [(w * windows[0]) >> 32 for w in stream[:n0]]
        sizes = [len(keys) for keys, _, _, _ in keyed] + [trace.contenders_left]
        stage = [0] * n0
        pos = 0
        for r, (keys, key_n0, per_counter, (_, lead, collided, tied)) in enumerate(keyed):
            assert (key_n0, per_counter, len(keys)) == (n0, 1, len(stage))
            words = stream[pos:pos + len(keys)]
            pos += len(keys)
            assert [k & sim.LOW for k in keys] == list(range(len(keys)))
            assert [k >> 32 for k in keys] == [(w * windows[st]) >> 32 for w, st in zip(words, stage)]
            for i in tied:
                stage[i] = min(stage[i] + 1, s.dcf.max_backoff_stage)
            assert sizes[r] - sizes[r + 1] in (0, 1)
            if sizes[r + 1] < sizes[r]:
                # one grant: the unique minimum's holder, or a re-draw below
                # the contender count on a collided channel
                i = lead[0]
                if collided[0]:
                    i = (stream[pos] * len(keys)) >> 32
                    pos += 1
                del stage[i]
        assert stage == []

    def test_round_keys_need_c_times_n0_below_2_to_32(self):
        # a key's low word holds index + n0 * pick, so C_s * n0 must stay
        # below 2^32; the frame checks it before its first round
        big = SimpleNamespace(radio=None, dcf=None, ris=SimpleNamespace(subchannels=range(2**31)))
        with pytest.raises(ValueError, match="C \\* n0 = 4294967296 must be below 2\\^32"):
            sim._run_contention(big, None, None, [0, 1], 0.0, 1.0, None, None, None, None)
        with pytest.raises(AttributeError):  # C * n0 = 2^31 passes, then the stub has no DCF
            sim._run_contention(big, None, None, [0], 0.0, 1.0, None, None, None, None)

    def test_resolve_round_matches_per_channel_minimum(self):
        meta = np.random.default_rng(2028)
        for _ in range(500):
            num_channels = int(meta.integers(1, 5))
            n = int(meta.integers(1, 4 * sim.HEAD))
            pick = meta.integers(0, num_channels, size=n)
            counters = meta.integers(0, int(meta.choice([2, 5, 15, 960])), size=n)
            n0 = n + int(meta.integers(0, 20))
            want = per_channel_reference(pick, counters, num_channels)
            for drawn in (True, False):
                got = resolve(pick, counters, num_channels, n0, drawn)
                assert got[:3] == want[:3]
                # tied users come channel by channel, ascending within each
                for c in range(num_channels):
                    assert ([i for i in got[3] if pick[i] == c]
                            == [i for i in want[3] if pick[i] == c])
                assert sorted(got[3]) == sorted(want[3])

    def test_array_log2_equals_scalar_log2(self):
        # channel.aligned_rates takes np.log2 over arrays where the scalar
        # chain rate_bps takes it of one float at a time; rates stay
        # bit-identical only while numpy's array and scalar log2 agree,
        # over every array length (SIMD loops split off a remainder)
        meta = np.random.default_rng(2030)
        x = 1.0 + np.concatenate((meta.uniform(0.0, 1.0, 20_000),
                                  10.0 ** meta.uniform(-12.0, 6.0, 20_000)))
        cause = "numpy %s: array and scalar np.log2 differ" % np.__version__
        want = [np.log2(v) for v in x.tolist()]
        assert np.log2(x).tolist() == want, cause
        for n in range(1, 70):
            assert np.log2(x[n : 2 * n]).tolist() == want[n : 2 * n], cause

    def test_array_float_power_equals_scalar_square(self):
        # channel.aligned_rates and optimizer.static_power square arrays with
        # np.float_power(a, 2.0) where the scalar chain squares one float at
        # a time (a ** 2); the bytes hold only while both reach the same
        # libm pow, over every array length and layout (np.square, a**2 and
        # np.power's SIMD loops differ from it in the last bit)
        meta = np.random.default_rng(2031)
        x = np.concatenate((meta.uniform(0.0, 1.0, 20_000),
                            10.0 ** meta.uniform(-320.0, 150.0, 20_000)))
        cause = "numpy %s: np.float_power(a, 2.0) and float ** 2 differ" % np.__version__
        want = [v ** 2 for v in x.tolist()]
        assert np.float_power(x, 2.0).tolist() == want, cause
        for n in range(1, 70):
            assert np.float_power(x[n : 2 * n], 2.0).tolist() == want[n : 2 * n], cause
        strided = x[:6000].reshape(60, 100)[:, ::3]
        assert np.float_power(strided, 2.0).ravel().tolist() == [
            v ** 2 for v in strided.ravel().tolist()
        ], cause

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


# every bound a contention draw takes on the tested networks: the spans
# W_s * C_s of the reference DCF, the edge DCFs of test_contention_oracle and
# conftest's guard DCF on 1-4 subchannels (C_s = 1 is also the fixed-pick
# span W_s), the shuffle's bounds 2..4 and a collided channel's re-draw
# below its contender count; then the largest span validate_scenario allows
RULE_DCFS = [
    DcfParams(),
    DcfParams(w_min=1, w_max=64, max_backoff_stage=6),
    DcfParams(w_min=15, w_max=15, max_backoff_stage=0),
    DcfParams(w_min=255, w_max=255 * 2**6),
]
RULE_BOUNDS = sorted(
    {w * c for d in RULE_DCFS for w in sim.window_table(d) for c in range(1, 5)}
    | set(range(1, 2001)) | {2**20}
)


def words_per_value(b: int) -> np.ndarray:
    """How many of the 2^32 words w give each value k of (w * b) >> 32:
    those with k * 2^32 <= w * b < (k + 1) * 2^32, counted as
    ceil((k + 1) * 2^32 / b) - ceil(k * 2^32 / b), with no word listed."""
    edges = -(-(np.arange(b + 1, dtype=np.int64) << 32) // b)
    return np.diff(edges)


class TestWordTape:
    def test_known_answers(self):
        # the first eight words of PCG64 seeded 2029: the high 32 bits of
        # its first eight raw outputs
        words = [3432184286, 164977938, 1788294798, 3211984922,
                 2224482258, 1193302901, 1791668175, 1041647501]
        raw = np.random.default_rng(2029).bit_generator.random_raw(8)
        assert (raw >> np.uint64(32)).tolist() == words
        tape = sim.WordTape(np.random.default_rng(2029))
        assert tape.words.size == 0
        buffer = tape.refill(0, 1)
        assert buffer is tape.words and buffer.dtype == np.int64
        assert buffer.size == sim.WordTape.READ_AHEAD
        assert buffer[:8].tolist() == words
        # a draw below b is (w * b) >> 32: word 3 below 960
        assert (buffer.item(3) * 960) >> 32 == 717
        # a refill keeps the unread words in front of the fresh ones
        assert tape.refill(5, 1)[:3].tolist() == words[5:]

    def test_refills_keep_the_raw_word_order(self):
        # reads by position with refills in between, each for a count that
        # reaches past the buffer's end or not, consume the raw outputs'
        # high words one by one
        meta = np.random.default_rng(2027)
        for _ in range(100):
            seed = int(meta.integers(2**32))
            tape = sim.WordTape(np.random.default_rng(seed))
            raw = np.random.default_rng(seed).bit_generator.random_raw(100_000)
            words, pos, read = tape.words, 0, []
            for _ in range(int(meta.integers(1, 12))):
                count = int(meta.integers(0, 300))
                if pos + count > words.size or meta.integers(4) == 0:
                    words, pos = tape.refill(pos, count + int(meta.integers(0, 5))), 0
                    assert words is tape.words and words.dtype == np.int64
                assert pos + count <= words.size
                read += words[pos:pos + count].tolist()
                pos += count
            assert read == (raw[:len(read)] >> np.uint64(32)).tolist()

    def test_each_value_is_within_its_bias_bound(self):
        # each value takes floor(2^32 / b) words or one more, so its
        # probability is within b / 2^32 of 1 / b, relative:
        # |count - 2^32 / b| / (2^32 / b) <= b / 2^32, in exact integers;
        # validate_scenario's cap b <= 2^20 keeps that at or below 2^-12
        for b in RULE_BOUNDS:
            counts = words_per_value(b)
            assert counts.size == b and int(counts.sum()) == 2**32
            assert int(np.abs(counts * b - 2**32).max()) <= b

    def test_needs_a_pcg64(self):
        with pytest.raises(ValueError, match="PCG64"):
            sim.WordTape(np.random.Generator(np.random.MT19937(1)))


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
            snr = oracles.amplitude_snr(channels.aligned_amplitude[k, m], rho, radio.noise_w)
            assert e.value == slot_s * oracles.rate_bps(snr, radio.subchannel_bw_hz)
            r, h, g = channels.r[k], channels.h[k, m], channels.g[k, m]
            phased = oracles.amplitude_snr(
                abs(composite_gain(r, h, g, oracles.align_phases(r, h, g))), rho, radio.noise_w
            )
            assert e.value == pytest.approx(
                slot_s * oracles.rate_bps(phased, radio.subchannel_bw_hz), rel=1e-12
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


    def test_grant_shortfall_is_handed_back(self, monkeypatch, fresh_schedules):
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

    def test_scheme2_frame_ends_before_the_all_contend_cascade(self):
        # every one of 700 users contends on one surface: serving them all
        # takes more rounds than the frame's budget holds, and the frame
        # draws only the rounds it holds
        s = small_scenario(total_users=700, num_ris=1, elements=4, seed=5)
        row = run_cell(s, "scheme2", 5)
        assert 0 < row["n_r_measured"] < dcfmod.contention_cascade(700, 1, s.dcf).n_r
        assert 0 < row["served_mobile"] < 1


class TestPacing:
    def test_each_recursion_is_stepped_once_and_no_further_than_read(
        self, monkeypatch, fresh_schedules
    ):
        # the planner's cascade and every frame pace to one service schedule
        # per (Y, C, w_min, l): each recursion starts once for the process,
        # and runs to the end only for a cascade; a frame steps it no
        # further than its round budget
        started, steps = {}, {}
        schedule = dcfmod.ServiceSchedule

        class Counted(schedule):
            def __init__(self, *key):
                super().__init__(*key)
                started[key] = started.get(key, 0) + 1

            def through(self, rounds=None):
                before = len(self.increments)
                increments = super().through(rounds)
                steps[self.key] = steps.get(self.key, 0) + len(increments) - before
                return increments

        def full(key):
            return len(schedule(*key).through())

        monkeypatch.setattr(dcfmod, "ServiceSchedule", Counted)
        s = small_scenario(total_users=40, ratio=(1, 2, 1), seed=6)
        d, c = s.dcf, len(s.ris.subchannels)
        everyone = (s.population.num_total, c, d.w_min, d.max_backoff_stage)
        read = {}
        for seed in (6, 7):
            channels, plan = plan_cell(s, seed)
            for mode in sim.MODES:
                frame, alloc = sim.plan_mode(s, channels, plan, mode)
                sim.run_frame(s, channels, frame, alloc, mode, seed)
                if mode == "scheme2":
                    budget = int(frame.contended_s / dcfmod.handshake_time(d) + 1e-9)
                    read[everyone] = max(read.get(everyone, 0), budget)
        y = len(classify_users(s.population)[1])
        read[y, c, d.w_min, d.max_backoff_stage] = plan.cascade.n_r
        assert started == {key: 1 for key in read}
        for key, rounds in read.items():
            assert steps[key] == min(rounds, full(key))
        # the scheme 2 frames end before the all-users recursion does
        assert steps[everyone] < full(everyone)


@functools.lru_cache(maxsize=None)
def contention_network(num_channels, stage, csi, total_users, draw_seed):
    """(scenario, channels): ``total_users`` on ``num_channels`` subchannels
    with one 4-element surface each, windows 2^s (w_min = 1) up to
    ``max_backoff_stage = stage``, drawn at ``draw_seed``."""
    dcf = DcfParams(w_min=1, w_max=2**stage, max_backoff_stage=stage)
    radio = RadioParams(num_subchannels=num_channels, rate_min_bps=1e4)
    s = default_scenario(
        total_users=total_users, num_ris=num_channels, elements_per_ris=4, seed=3,
        radio=radio, dcf=dcf,
    )
    s = dataclasses.replace(s, csi_best_channel=csi)
    return s, chan.draw_channels(s, draw_seed)


def scheme2_frame(scenario, channels, seed, budget):
    """An unrecorded scheme2 frame of ``seed`` whose contended period holds
    ``budget`` rounds."""
    frame, alloc = sim.plan_scheme2(scenario, budget * dcfmod.handshake_time(scenario.dcf))
    return sim.run_frame(scenario, channels, frame, alloc, "scheme2", seed)


def frame_bytes(trace) -> tuple:
    """Everything a contended frame returns: its tally, S_c and S_o, and the
    bytes of ``served`` and ``bits``."""
    return (
        trace.n_r_measured, trace.collisions, trace.grant_shortfall, trace.contenders_left,
        trace.throughput_contended_bps, trace.throughput_overall_bps,
        trace.served.tobytes(), trace.bits.tobytes(),
    )


def fresh_frame(scenario, channels, seed, budget):
    """The same frame from a run stepped from round 0 outside the memo."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim, "_MEMO", {})
        return scheme2_frame(scenario, channels, seed, budget)


def assert_memo_matches_fresh(networks, seeds, budgets):
    """Every frame of every network, seed and budget, in that nesting and
    order, read through the process memo equals a fresh unshared run."""
    for seed in seeds:
        for budget in budgets:
            for scenario, channels in networks:
                shared = scheme2_frame(scenario, channels, seed, budget)
                fresh = fresh_frame(scenario, channels, seed, budget)
                assert frame_bytes(shared) == frame_bytes(fresh), (seed, budget)
                assert sum(run.values for run in sim._MEMO.values()) <= sim.MEMO_VALUES


def ordered(budgets, order):
    """``budgets`` ascending, descending, or ascending with each one read twice."""
    up = sorted(budgets)
    return {"ascending": up, "descending": up[::-1], "repeated": [b for b in up for _ in (0, 1)]}[
        order
    ]


class TestContentionMemo:
    # a sweep's frames read one contention run per key through a process
    # memo, each cut at its own round budget; every frame must be the bytes
    # of a run stepped from round 0 for it alone

    @given(
        num_channels=st.sampled_from([1, 2, 3]),
        stage=st.integers(0, 7),
        csi=st.booleans(),
        total_users=st.integers(2, 16),
        budgets=st.lists(st.integers(1, 160), min_size=1, max_size=3, unique=True),
        order=st.sampled_from(["ascending", "descending", "repeated"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_memoized_frames_equal_fresh_runs(
        self, num_channels, stage, csi, total_users, budgets, order
    ):
        # two realizations share every key part but the csi picks, and the
        # seeds interleave, so a run read by the wrong frame shows
        networks = [
            contention_network(num_channels, stage, csi, total_users, draw_seed)
            for draw_seed in (1, 2)
        ]
        sim._MEMO.clear()
        assert_memo_matches_fresh(networks, (3, 4, 3), ordered(budgets, order))

    def test_guard_heavy_frames_equal_fresh_runs(self):
        # one channel and w_min = 1: the floor stalls and the starvation
        # guard serves most of the 40 contenders over about 2,000 rounds
        s, channels = contention_network(1, 0, False, 40, 1)
        schedule = dcfmod.service_schedule(40, 1, 1, 0)
        assert len(schedule.through()) == 1990 and len(schedule.forced) == 39
        assert_memo_matches_fresh([(s, channels)], (3, 4, 3), [1990, 700, 2500, 50])
        assert scheme2_frame(s, channels, 3, 2500).served.all()

    def test_shortfall_frames_equal_fresh_runs(self):
        # every contender picks subchannel 0 by CSI while the guard asks for
        # two serves a round: shortfall carries across the cuts
        s, ch, frame, alloc, n_r = guard_shortfall_cell(6)
        full = sim.run_frame(s, ch, frame, alloc, "scheme2", 22)
        assert full.grant_shortfall > 0 and full.served.all()
        assert_memo_matches_fresh([(s, ch)], (22, 4, 22), [n_r + 1, n_r // 2, 40, n_r + 1])

    def test_key_holds_w_min_and_the_picks(self):
        # frames of one seed and size whose windows differ only in w_min, or
        # whose csi picks differ, each read their own run
        s, channels = contention_network(2, 3, False, 12, 1)
        wider = dataclasses.replace(s, dcf=dataclasses.replace(s.dcf, w_min=2))
        assert (s.dcf.w_min, s.dcf.w_max) == (1, wider.dcf.w_max)
        assert_memo_matches_fresh([(s, channels), (wider, channels)], (5,), [300, 20])
        picks = [contention_network(3, 2, True, 12, draw_seed) for draw_seed in (1, 2, 3)]
        assert len({
            np.argmax(opt.best_surfaces(
                ch, range(12), net.ris.surfaces_by_subchannel, net.radio.tx_power_mobile_w,
                net.radio.noise_w, net.radio.subchannel_bw_hz,
            )[1], axis=1).tobytes()
            for net, ch in picks
        }) == 3
        assert_memo_matches_fresh(picks, (5,), [300, 20])

    @pytest.mark.parametrize("cap", ["zero", "one run"])
    def test_capped_memo_writes_the_same_rows(self, cap, monkeypatch):
        template = small_scenario(total_users=40, seed=6)
        sweeps = [
            (template, parse_sweep("users=20:40:10"), ("proposed", "scheme2")),
            (template, parse_sweep("beta-alpha=4:8:2"), ("proposed",)),
        ]
        want = [run_experiment(t, sw, (1, 2, 3), modes) for t, sw, modes in sweeps]
        largest = max(run.values for run in sim._MEMO.values())
        monkeypatch.setattr(sim, "MEMO_VALUES", 0 if cap == "zero" else largest)
        held = []
        memo_cut = sim.memo_cut

        def spy(*args):
            found = memo_cut(*args)
            held.append(sum(run.values for run in sim._MEMO.values()))
            return found

        monkeypatch.setattr(sim, "memo_cut", spy)
        sim._MEMO.clear()
        got = [run_experiment(t, sw, (1, 2, 3), modes) for t, sw, modes in sweeps]
        assert repr(got) == repr(want)  # float repr is exact, and NaN-safe
        assert held and max(held) <= sim.MEMO_VALUES
        if cap == "zero":
            assert not sim._MEMO

    def test_a_split_sweep_steps_each_round_once(self, monkeypatch):
        # every split value of a seed cuts one run: the rounds stepped are
        # those of the longest budget, not the sum over the values
        template = small_scenario(total_users=40, seed=6)
        stepped = []
        resolve_round = sim.resolve_round

        def counted(*args):
            stepped.append(1)
            return resolve_round(*args)

        monkeypatch.setattr(sim, "resolve_round", counted)
        rows = run_experiment(template, parse_sweep("beta-alpha=2:8:1"), (1,))
        read = sum(row["n_r_measured"] for row in rows)
        assert len(stepped) == max(row["n_r_measured"] for row in rows) < read

    def test_recorded_frame_neither_reads_nor_grows_the_memo(self, monkeypatch):
        s, channels = contention_network(2, 3, False, 12, 1)
        quiet = scheme2_frame(s, channels, 5, 300)
        memo = dict(sim._MEMO)
        values = {key: run.values for key, run in memo.items()}

        def no_memo(*args):
            raise AssertionError("a recorded frame read the memo")

        monkeypatch.setattr(sim, "memo_cut", no_memo)
        frame, alloc = sim.plan_scheme2(s, 300 * dcfmod.handshake_time(s.dcf))
        traced = sim.run_frame(s, channels, frame, alloc, "scheme2", 5, record=True)
        assert frame_bytes(traced) == frame_bytes(quiet)
        assert sim._MEMO == memo and {k: r.values for k, r in sim._MEMO.items()} == values

def old_period_lengths(frame, mode):
    """(scheduled length, contention offset, contention budget) as run_frame
    derived them from the mode name before it read them all from the frame."""
    sched_len = frame.scheduled_s if mode == "proposed" else frame.t2_s
    offset = frame.scheduled_s if mode != "scheme2" else 0.0
    budget = frame.contended_s if mode != "scheme2" else frame.t2_s
    return sched_len, offset, budget


def old_user_split(scenario, mode):
    """(scheduled, contenders) as run_frame derived them from the mode name
    before it read them from the allocation's slots."""
    pop = scenario.population
    static_ids, mobile_ids = classify_users(pop)
    if mode == "proposed":
        return static_ids, mobile_ids
    if mode == "scheme1":
        return list(range(pop.num_existing)), []
    return [], list(range(pop.num_total))


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
        fairness = sim.measure_fairness(trace)
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

    def test_scheme1_powers(self, monkeypatch):
        # static users assign at an even share P_max / X of the budget and
        # transmit at water-filled powers; mobile users do both at their
        # fixed power, which differs from the share on this network
        from ris_mac import optimizer as opt

        s = small_scenario(total_users=12, ratio=(1, 1, 0), seed=20)
        radio = s.radio
        static_ids, mobile_ids = classify_users(s.population)
        share = radio.p_max_w / len(static_ids)
        assert share != radio.tx_power_mobile_w
        ch = chan.draw_channels(s, 20)
        handed = []
        config = opt.centralized_ris_config

        def spy(channels, ids, rho, *rest):
            handed.append(np.asarray(rho)[ids].tolist())
            return config(channels, ids, rho, *rest)

        monkeypatch.setattr(opt, "centralized_ris_config", spy)
        _, alloc = sim.plan_scheme1(s, ch, t2_common=1.0)
        is_static = np.asarray(s.population.mobility_flags) == 1
        assert handed == [np.where(is_static, share, radio.tx_power_mobile_w).tolist()]
        amp = ch.aligned_amplitude[static_ids, alloc.ris_of_user[static_ids]]
        gains = np.array([a**2 / radio.noise_w for a in amp.tolist()])
        want = opt.allocate_power(gains, radio.p_max_w, radio.rate_min_bps,
                                  radio.subchannel_bw_hz, user_ids=static_ids)
        assert alloc.rho_sq_w[static_ids].tolist() == want.tolist()
        assert alloc.rho_sq_w[mobile_ids].tolist() == [radio.tx_power_mobile_w] * len(mobile_ids)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("mode", sim.MODES)
    @pytest.mark.parametrize("network", ["reference", "c4"])
    def test_plan_slots_exactly_the_users_the_mode_schedules(self, network, mode, seed):
        # run_frame schedules the users that hold a slot, so each planner's
        # slots must be the old per-mode split's scheduled users, each on a surface
        s = default_scenario(seed=seed) if network == "reference" else load_scenario(GOLDEN_C4)
        channels, plan = plan_cell(s, seed)
        _, alloc = sim.plan_mode(s, channels, plan, mode)
        scheduled, _ = old_user_split(s, mode)
        holds_slot = alloc.slot_of_user >= 0
        assert np.flatnonzero(holds_slot).tolist() == scheduled
        assert (alloc.ris_of_user[holds_slot] >= 0).all()

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("mode", sim.MODES)
    @pytest.mark.parametrize("network", ["reference", "c4"])
    def test_frame_runs_the_old_user_split(self, network, mode, seed, monkeypatch):
        # the halves of the frame get the users the old per-mode split gave
        # them: the same scheduled grants in (slot, user) order, the same
        # contenders when the frame has a contended period, the same tallies
        s = default_scenario(seed=seed) if network == "reference" else load_scenario(GOLDEN_C4)
        channels, plan = plan_cell(s, seed)
        frame, alloc = sim.plan_mode(s, channels, plan, mode)
        scheduled, contenders = old_user_split(s, mode)
        handed = []
        contend = sim._run_contention

        def spy(*args):
            handed.append(list(args[3]))
            handed.append(contend(*args))
            return handed[-1]

        monkeypatch.setattr(sim, "_run_contention", spy)
        trace = sim.run_frame(s, channels, frame, alloc, mode, seed, record=True)
        slot_of = alloc.slot_of_user.tolist()
        slots = int(frame.scheduled_s / s.dcf.data_slot_s + 1e-9)
        granted = sorted((k for k in scheduled if slot_of[k] < slots), key=slot_of.__getitem__)
        assert [e.user for e in trace.events if e.kind == "slot-grant"] == granted
        assert trace.grants_dropped == len(scheduled) - len(granted)
        old_contends = bool(contenders) and frame.contended_s > 0
        assert handed[::2] == ([contenders] if old_contends else [])
        rounds, collisions, shortfall, left, _ = handed[1] if old_contends else (0,) * 5
        assert (trace.n_r_measured, trace.collisions, trace.grant_shortfall) == (
            rounds, collisions, shortfall,
        )
        assert trace.contenders_left == (left if old_contends else len(contenders))
        served = np.zeros(s.population.num_total, dtype=bool)
        served[granted] = True
        served[contenders] = trace.served[contenders]
        assert trace.served.tolist() == served.tolist()

    def test_scheme1_cell_with_only_new_arrivals(self):
        # no existing user: scheme 1 plans no slot and no power, and its
        # frame serves no one (the arrivals wait for the next frame)
        s = small_scenario(total_users=6, ratio=(0, 0, 1), seed=23)
        assert s.population.num_existing == 0
        channels, plan = plan_cell(s, 23)
        frame, alloc = sim.plan_mode(s, channels, plan, "scheme1")
        assert (frame.t0_s, frame.num_slots, frame.t2_s) == (0.0, 0, plan.frame.t2_s)
        assert alloc.slot_of_user.tolist() == alloc.ris_of_user.tolist() == [-1] * 6
        assert alloc.rho_sq_w.tolist() == [0.0] * 6
        trace = sim.run_frame(s, channels, frame, alloc, "scheme1", 23, record=True)
        assert not trace.served.any() and trace.contenders_left == 0
        assert [e.kind for e in trace.events] == ["compute", "idle"]
        cell = run_cell(s, "scheme1", 23, planned=(channels, plan))
        assert (cell["s_o_bps"], cell["served_new"], cell["n_r_measured"]) == (0.0, 0.0, 0)

    def test_unknown_mode_rejected(self):
        s = small_scenario(total_users=6, seed=17)
        ch = chan.draw_channels(s, 17)
        plan = joint_optimize(s, ch)
        with pytest.raises(sim.ModeMismatchError):
            sim.run_frame(s, ch, plan.frame, plan.allocation, "scheme3", 17)


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
        assert oracles.measure_throughput(trace, frame) == (0.0, 0.0, 0.0)


class TestFairnessMeasure:
    def test_proposed_reference_serves_everyone(self):
        s = small_scenario(total_users=12, seed=18)
        for seed in (18, 19):
            fairness = sim.measure_fairness(planned_frame(s, seed)[4])
            assert fairness == {"static": 1.0, "mobile": 1.0, "new": 1.0}

    def test_equals_the_mask_loop_per_class(self):
        # the per-class mask and mean the tally replaced, bit for bit, over
        # frames with absent classes, no users and partial service
        def mask_loop(tr):
            names = {CLASS_STATIC: "static", CLASS_MOBILE: "mobile", CLASS_NEW: "new"}
            want = {}
            for cid, name in names.items():
                mask = tr.class_of_user == cid
                want[name] = float(tr.served[mask].mean()) if mask.sum() else float("nan")
            return want

        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(0, 40))
            classes = rng.choice(3, size=rng.integers(1, 4), replace=False)
            trace = SimpleNamespace(
                class_of_user=rng.choice(classes, size=n).astype(int),
                served=rng.random(n) < rng.random(),
            )
            got, want = sim.measure_fairness(trace), mask_loop(trace)
            assert str(got) == str(want)  # float repr is exact, and NaN-safe
            assert all(type(v) is float for v in got.values())

    def test_run_cell_columns(self):
        s = small_scenario(total_users=8, seed=19)
        cell = run_cell(s, "proposed", 19)
        assert cell["served_static"] == 1.0
        assert cell["n_r_measured"] == cell["n_r_analytic"]
        assert cell["s_o_bps"] > 0
