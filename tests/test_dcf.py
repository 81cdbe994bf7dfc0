"""Contention analytics against independent oracles: a brentq root finder
for the fixed point, exhaustive event enumeration and the printed binomial
sum for the per-channel success probability, per-slot outcome probabilities
under the printed idle exponent, and a from-scratch recursion for the
cascade."""

import itertools
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln

from ris_mac import dcf
from ris_mac.scenario import DcfParams

W_PAPER, L_PAPER = 15, 6


def tau_formula(p, w, l):
    if abs(1.0 - 2.0 * p) < 1e-12:
        return 4.0 / (2.0 * (w + 1) + w * l)
    return 2.0 * (1.0 - 2.0 * p) / ((1.0 - 2.0 * p) * (w + 1) + p * w * (1.0 - (2.0 * p) ** l))


class TestSolveTau:
    def test_single_contender_collapses(self):
        tau, p = dcf.solve_tau(1, W_PAPER, L_PAPER)
        assert p == 0.0
        assert tau == 2.0 / (W_PAPER + 1)

    def test_matches_independent_brentq_solver(self):
        # independent root find in p-space with scipy, W=15, l=6, V=10
        v = 10

        def g(p):
            return (1.0 - (1.0 - tau_formula(p, W_PAPER, L_PAPER)) ** (v - 1)) - p

        p_ref = brentq(g, 0.0, 1.0 - 1e-12, xtol=1e-14)
        tau_ref = tau_formula(p_ref, W_PAPER, L_PAPER)
        tau, p = dcf.solve_tau(v, W_PAPER, L_PAPER)
        assert tau == pytest.approx(tau_ref, abs=1e-10)
        assert p == pytest.approx(p_ref, abs=1e-10)

    def test_residuals_below_tolerance(self):
        for v in range(1, 65):
            tau, p = dcf.solve_tau(v, W_PAPER, L_PAPER)
            assert abs(tau - tau_formula(p, W_PAPER, L_PAPER)) < 1e-10
            assert abs(p - (1.0 - (1.0 - tau) ** (v - 1))) < 1e-10

    def test_tau_decreases_with_contenders(self):
        taus = [dcf.solve_tau(v, W_PAPER, L_PAPER)[0] for v in range(2, 51)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_rejects_zero_contenders(self):
        with pytest.raises(ValueError):
            dcf.solve_tau(0, W_PAPER, L_PAPER)

    @given(
        v=st.integers(min_value=1, max_value=200),
        w=st.sampled_from([7, 15, 31, 63]),
        l=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_fixed_point_properties(self, v, w, l):
        tau, p = dcf.solve_tau(v, w, l)
        assert 0.0 < tau < 1.0
        assert 0.0 <= p < 1.0
        assert abs(p - (1.0 - (1.0 - tau) ** (v - 1))) < 1e-10


class SlotProbabilities(NamedTuple):
    p_success: float
    p_idle: float
    p_collision: float
    p_collision_raw: float
    valid: bool


def slot_probabilities(v, tau):
    """Per-slot outcome probabilities on one channel with V contenders,
    with the paper's printed idle exponent V-1.

    That exponent drives the collision term negative at V = 1 (P_e = 1,
    P_c = -P_s), so the raw term is kept beside the clamped one and flagged.
    """
    p_s = v * tau * (1.0 - tau) ** (v - 1)
    p_e = (1.0 - tau) ** (v - 1)
    p_c_raw = 1.0 - p_e - p_s
    return SlotProbabilities(p_s, p_e, max(p_c_raw, 0.0), p_c_raw, p_c_raw >= 0.0)


class TestSlotProbabilities:
    def test_two_contenders_half_tau(self):
        sp = slot_probabilities(2, 0.5)
        assert sp.p_success == pytest.approx(0.5)
        assert sp.p_idle == pytest.approx(0.5)
        assert sp.p_collision == pytest.approx(0.0)
        assert sp.valid

    def test_single_contender_guard_flags_printed_formula_edge(self):
        sp = slot_probabilities(1, 0.5)
        assert sp.p_success == pytest.approx(0.5)
        assert sp.p_idle == pytest.approx(1.0)
        assert sp.p_collision_raw == pytest.approx(-0.5)
        assert sp.p_collision == 0.0
        assert not sp.valid

    def test_success_term_by_event_enumeration(self):
        # exactly-one-transmits probability from the 2^V transmit outcomes
        v = 10
        tau, _ = dcf.solve_tau(v, W_PAPER, L_PAPER)
        sp = slot_probabilities(v, tau)
        p_success = 0.0
        p_idle = 0.0
        for outcome in itertools.product((0, 1), repeat=v):
            prob = math.prod(tau if o else 1.0 - tau for o in outcome)
            if sum(outcome) == 1:
                p_success += prob
            if sum(outcome[1:]) == 0:  # tagged user's V-1 rivals silent
                p_idle += prob
        assert sp.p_success == pytest.approx(p_success, abs=1e-12)
        assert sp.p_idle == pytest.approx(p_idle, abs=1e-12)
        assert 0.0 <= sp.p_success + sp.p_collision <= 1.0


def enumerated_channel_success(n, tau, c):
    """Success probability on channel 0 by brute force over every
    user-to-channel assignment and every sensing/transmit event subset."""

    def inner(v):
        # idle sensing slot for the winner's v-1 rivals times a singleton
        # transmit slot, both enumerated outcome by outcome
        total = 0.0
        for winner in range(v):
            sense = 0.0
            for outcome in itertools.product((0, 1), repeat=v - 1):
                if sum(outcome) == 0:
                    sense += math.prod(1.0 - tau for _ in outcome) if outcome else 1.0
            if v == 1:
                sense = 1.0
            tx = 0.0
            for outcome in itertools.product((0, 1), repeat=v):
                if outcome[winner] == 1 and sum(outcome) == 1:
                    tx += math.prod(tau if o else 1.0 - tau for o in outcome)
            total += sense * tx
        return total

    cache = {}
    prob = 0.0
    for assign in itertools.product(range(c), repeat=n):
        v = sum(1 for a in assign if a == 0)
        if v == 0:
            continue
        if v not in cache:
            cache[v] = inner(v)
        prob += (1.0 / c) ** n * cache[v]
    return prob


class TestChannelSuccess:
    def test_single_contender(self):
        tau, _ = dcf.solve_tau(1, W_PAPER, L_PAPER)
        assert dcf.channel_success_prob(1, tau, 4) == pytest.approx(tau / 4)

    def test_single_channel_matches_weighted_slot_term(self):
        tau = 0.3
        sp = slot_probabilities(2, tau)
        got = dcf.channel_success_prob(2, tau, 1)
        assert got == pytest.approx(sp.p_idle * sp.p_success, abs=1e-15)

    @pytest.mark.parametrize("n,c", [(10, 2), (8, 2), (6, 3), (12, 3)])
    def test_matches_exhaustive_enumeration(self, n, c):
        tau, _ = dcf.solve_tau(n, W_PAPER, L_PAPER)
        got = dcf.channel_success_prob(n, tau, c)
        want = enumerated_channel_success(n, tau, c)
        assert got == pytest.approx(want, abs=1e-12)


def printed_binomial_sum(n, tau, c):
    """The paper's P_iC term by term: sum over V of (1-tau)^(V-1) C(n,V)
    V tau (1-tau)^(V-1) (1/C)^V (1-1/C)^(n-V)."""
    q = 1.0 / c
    return math.fsum(
        math.comb(n, v) * q**v * (1.0 - q) ** (n - v) * v * tau * (1.0 - tau) ** (2 * (v - 1))
        for v in range(1, n + 1)
    )


def gammaln_channel_success(contenders, tau, num_channels):
    """channel_success_prob as the package computed it before the closed
    form: the printed sum in log space through gammaln, with the C = 1 case
    (only the V = N term survives) apart."""
    n, c = int(contenders), int(num_channels)
    if c == 1:
        return float(n * tau * (1.0 - tau) ** (2.0 * (n - 1.0)))
    v = np.arange(1, n + 1, dtype=float)
    log_binom = gammaln(n + 1) - gammaln(v + 1) - gammaln(n - v + 1)
    log_pick = v * math.log(1.0 / c) + (n - v) * math.log(1.0 - 1.0 / c)
    terms = np.exp(log_binom + log_pick) * v * tau * (1.0 - tau) ** (2.0 * (v - 1.0))
    return float(np.sum(terms))


def cascade_outcome(y, c, params):
    summary = dcf.contention_cascade(y, c, params)
    return (
        summary.n_r,
        [rd.cumulative_served for rd in summary.rounds],
        summary.required_beta_t2_s,
        summary.starvation_guard_fired,
    )


class TestClosedForm:
    """P_iC = N tau / C * (1 - tau(2-tau)/C)^(N-1) in place of the sum."""

    @pytest.mark.parametrize("c", range(1, 9))
    def test_equals_printed_binomial_sum(self, c):
        for n in range(1, 401, 3):
            tau, _ = dcf.solve_tau(n, W_PAPER, L_PAPER)
            for t in (tau, 0.05, 0.6):
                want = printed_binomial_sum(n, t, c)
                assert dcf.channel_success_prob(n, t, c) == pytest.approx(want, rel=1e-12), (n, t)

    def test_cascade_equals_the_gammaln_sum(self, monkeypatch):
        # the closed form and the old log-space sum differ in the last bits
        # only; the floor recursion must not see it
        params = DcfParams()
        grid = [(y, c) for c in range(1, 5) for y in [*range(41), *range(47, 301, 11), 300]]

        def clear():
            dcf.round_params.cache_clear()
            dcf.service_schedule.cache_clear()

        def outcomes():
            clear()
            try:
                return [cascade_outcome(y, c, params) for y, c in grid]
            finally:
                clear()

        closed = outcomes()
        monkeypatch.setattr(dcf, "channel_success_prob", gammaln_channel_success)
        summed = outcomes()
        for (y, c), got, want in zip(grid, closed, summed):
            assert got == want, (y, c)


def reference_cascade_rounds(y, c, w, l):
    """From-scratch service recursion used as the cascade oracle."""
    served = 0
    acc = 0.0
    rounds = 0
    while served < y:
        n = y - served
        tau, _ = dcf.solve_tau(n, w, l)
        acc += c * dcf.channel_success_prob(n, tau, c)
        served = min(y, math.floor(acc + 1e-9))
        rounds += 1
        assert rounds < 10_000
    return rounds


def reference_service_rounds(y, c, w, l):
    """The floor recursion with its starvation guard, written as the
    generator the package once stepped: (cumulative_served, forced) per
    round."""
    served, credit, streak = 0, 0.0, 0
    while served < y:
        n = y - served
        credit += c * dcf.round_params(n, c, w, l)[2]
        delta = min(max(math.floor(credit + 1e-9) - served, 0), n)
        forced = False
        if delta:
            streak = 0
        else:
            streak += 1
            if streak >= 50:
                delta, forced, streak = min(c, n), True, 0
        served += delta
        yield served, forced


class TestCascade:
    def test_empty_population(self):
        summary = dcf.contention_cascade(0, 2, DcfParams())
        assert summary.n_r == 0
        assert summary.rounds == ()
        assert summary.required_beta_t2_s == 0.0

    def test_single_user_two_channels(self):
        # tau = 2/16 = 0.125, per-round credit C * tau/C = 0.125; the floor
        # first reaches 1 after 8 rounds
        summary = dcf.contention_cascade(1, 2, DcfParams())
        assert summary.n_r == reference_cascade_rounds(1, 2, W_PAPER, L_PAPER) == 8

    @pytest.mark.parametrize("y,c", [(5, 2), (17, 3), (40, 2), (100, 2)])
    def test_matches_reference_recursion(self, y, c):
        summary = dcf.contention_cascade(y, c, DcfParams())
        assert summary.n_r == reference_cascade_rounds(y, c, W_PAPER, L_PAPER)

    def test_round_bookkeeping(self):
        y = 37
        summary = dcf.contention_cascade(y, 2, DcfParams())
        acc = 0.0
        prev_served = 0
        prev_contenders = y
        for rd in summary.rounds:
            assert rd.contenders == y - prev_served  # N_{i+1} = Y - served_i
            assert rd.contenders <= prev_contenders
            assert 0.0 < rd.tau < 1.0
            assert 0.0 <= rd.collision_prob < 1.0
            acc += 2 * rd.success_prob_channel
            if not rd.forced:
                assert rd.cumulative_served == min(y, math.floor(acc + 1e-9))
            assert rd.cumulative_served >= prev_served
            prev_served = rd.cumulative_served
            prev_contenders = rd.contenders
        assert summary.rounds[-1].cumulative_served == y
        assert summary.required_beta_t2_s == pytest.approx(summary.n_r * summary.t_r_s)

    @pytest.mark.parametrize("y,c,w_min", [(37, 2, 15), (3, 1, 255)])
    def test_schedule_steps_match_cascade_rows(self, y, c, w_min):
        # the frame engine steps a ServiceSchedule lazily; its rounds must be
        # the cascade's rows and the reference recursion's, also when the
        # starvation guard fires (w_min = 255)
        params = DcfParams(w_min=w_min)
        summary = dcf.contention_cascade(y, c, params)
        steps = list(reference_service_rounds(y, c, params.w_min, params.max_backoff_stage))
        assert steps == [(rd.cumulative_served, rd.forced) for rd in summary.rounds]
        assert [rd.round_index for rd in summary.rounds] == list(range(1, len(steps) + 1))
        guard_fired = any(forced for _, forced in steps)
        assert guard_fired == summary.starvation_guard_fired == (w_min == 255)

    def test_rounds_nonincreasing_in_channels(self):
        rounds = [dcf.contention_cascade(30, c, DcfParams()).n_r for c in range(1, 7)]
        assert all(a >= b for a, b in zip(rounds, rounds[1:]))

    def test_cascade_is_memoised(self, monkeypatch, fresh_schedules):
        # a cascade only wraps its key's schedule in service_schedule: a
        # repeated cascade wraps the schedule already stepped and steps no
        # round of its own
        first = dcf.contention_cascade(23, 3, DcfParams())

        def refuse(*args):
            raise AssertionError("a repeated cascade stepped a round")

        monkeypatch.setattr(dcf, "round_params", refuse)
        again = dcf.contention_cascade(23, 3, DcfParams())
        assert again.schedule is first.schedule
        assert again == first

    def test_evicted_cascade_rebuilds_over_the_same_schedule(self, fresh_schedules):
        # the schedules are owned by service_schedule, which never evicts
        # one, so a cascade built again wraps the recursion already stepped
        # instead of stepping a second copy, however many other keys were
        # read since (making a schedule steps nothing)
        first = dcf.contention_cascade(23, 3, DcfParams())
        for y in range(1000, 1300):
            dcf.service_schedule(y, 3, 15, 6)
        again = dcf.contention_cascade(23, 3, DcfParams())
        assert again is not first and again.schedule is first.schedule
        assert again == first

    def test_failed_step_resumes_to_a_fresh_schedule(self, monkeypatch, fresh_schedules):
        # a step that raises changes nothing of its round, and the rounds
        # before it stay: a later through() resumes there and completes the
        # schedule to exactly the increments of one never interrupted
        params = DcfParams()
        key = (60, 2, params.w_min, params.max_backoff_stage)
        fresh = dcf.ServiceSchedule(*key)
        fresh.through()
        round_params, calls = dcf.round_params, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 10:
                raise RuntimeError("step failed")
            return round_params(*args)

        monkeypatch.setattr(dcf, "round_params", failing)
        schedule = dcf.service_schedule(*key)
        with pytest.raises(RuntimeError):
            schedule.through()
        assert schedule.increments == fresh.increments[:9]
        monkeypatch.setattr(dcf, "round_params", round_params)
        assert len(fresh.increments) > 10
        assert schedule.through() == fresh.increments
        assert schedule.forced == fresh.forced
        assert dcf.contention_cascade(60, 2, params).n_r == len(fresh.increments)

    def test_cached_cascade_keeps_no_row_objects(self):
        # the cache keeps a cascade's compact schedule, 4 bytes a round, not
        # a row object per round: at 15,357 rounds those rows once held 3.4 MB
        dcf.round_params.cache_clear()
        dcf.service_schedule.cache_clear()
        tracemalloc.start()
        try:
            summary = dcf.contention_cascade(700, 1, DcfParams())
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.n_r == 15357
        assert retained < 512 * 1024

    def test_rounds_bounded_and_guard_served_counted(self):
        # a round serves a user or lengthens a zero streak, and the 50th
        # round of a streak force-serves min(C, n) >= 1, so N_r <= 50 Y.
        # The guard first serves anyone at Y = 718 on one channel and at
        # Y = 2665 on two, so the grid brackets both onsets.
        onset = [(717, 1), (718, 1), (2664, 2), (2665, 2)]
        grid = [(y, c, w) for w in (15, 255) for c in (1, 2, 3) for y in (1, 5, 40, 300)]
        grid += [(y, c, W_PAPER) for y, c in onset]
        for y, c, w in grid:
            summary = dcf.contention_cascade(y, c, DcfParams(w_min=w))
            assert summary.n_r <= dcf.STARVATION_GUARD_ROUNDS * y, (y, c, w)
            guard_served = prev = 0
            for served, forced in reference_service_rounds(y, c, w, L_PAPER):
                if forced:
                    guard_served += served - prev
                prev = served
            assert summary.guard_served == guard_served, (y, c, w)
            assert summary.starvation_guard_fired == (guard_served > 0), (y, c, w)
        guard = {yc: dcf.contention_cascade(*yc, DcfParams()).guard_served for yc in onset}
        assert guard[717, 1] == 0 < guard[718, 1]
        assert guard[2664, 2] == 0 < guard[2665, 2]

    def test_conservation_property(self):
        for y in (1, 2, 3, 9, 28, 55):
            summary = dcf.contention_cascade(y, 2, DcfParams())
            deltas = []
            prev = 0
            for rd in summary.rounds:
                deltas.append(rd.cumulative_served - prev)
                prev = rd.cumulative_served
            assert sum(deltas) == y


class TestHandshake:
    def test_payload_only(self):
        d = DcfParams(
            rts_bytes=0, cts_bytes=0, sifs_s=1e-12, difs_s=1e-12,
            prop_delay_s=0.0, payload_time_s=1e-3,
        )
        assert dcf.handshake_time(d) == pytest.approx(1e-3, abs=1e-11)

    def test_reference_numbers(self):
        # 24 B and 16 B control frames at 1 Mb/s, 4 ms payload, 10/50 us
        # interframe spaces, 1 us propagation: 192+128+4000+20+50+2 us
        d = DcfParams()
        assert dcf.handshake_time(d) == pytest.approx(4392e-6, abs=1e-12)

    def test_linear_in_payload_time(self):
        d1 = DcfParams(payload_time_s=4e-3)
        d2 = DcfParams(payload_time_s=8e-3)
        assert dcf.handshake_time(d2) - dcf.handshake_time(d1) == pytest.approx(4e-3)
