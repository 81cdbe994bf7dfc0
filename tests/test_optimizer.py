"""Optimizer tests: water-filling against a simplex grid search, assignment
against exhaustive search, frame-timing identities, alternation
monotonicity, the (subchannel, slot) invariant over random networks, and
the complexity/rate-increment identities."""

import dataclasses
import itertools
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_mac import channel as chan
from ris_mac import dcf as dcfmod
from ris_mac import optimizer as opt
from ris_mac import simulator as sim
from ris_mac.scenario import (
    DcfParams,
    build_ris_inventory,
    classify_users,
    load_scenario,
    validate_scenario,
)

from conftest import aligned_gain_magnitude, random_link, small_scenario
import oracles


def sum_rate(gains, powers):
    return float(np.sum(np.log2(1.0 + np.asarray(gains) * np.asarray(powers))))


def power_kkt_residual(
    p: np.ndarray, gain_sq_over_noise: np.ndarray, p_max_w: float, floors: np.ndarray
) -> float:
    """Max stationarity/complementarity violation of a candidate allocation."""
    c = np.asarray(gain_sq_over_noise, dtype=float)
    grad = c / (1.0 + c * p) / math.log(2.0)
    free = p > floors + 1e-9
    resid = abs(p.sum() - p_max_w)
    if np.any(free):
        lam = grad[free].mean()
        resid = max(resid, float(np.max(np.abs(grad[free] - lam))))
        # floored users must not want more power than the free water level
        if np.any(~free):
            resid = max(resid, float(max(0.0, np.max(grad[~free]) - lam)))
    return resid


def bisection_powers(c, p_max_w, rate_min, bw):
    """Water-filled powers by plain bisection on the water level, summing
    the powers at every step: floors built user by user, a fresh array per
    step, then allocate_power's slack step.  An oracle for its closed-form
    level."""
    floors = np.array([oracles.rate_floor_power(ck, rate_min, bw) for ck in c])
    inv_c = 1.0 / c

    def spend(mu):
        return np.maximum(floors, mu - inv_c).sum()

    lo, hi = 0.0, p_max_w + inv_c.max()
    while spend(hi) < p_max_w:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spend(mid) > p_max_w:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16 * max(1.0, p_max_w):
            break
    p = np.maximum(floors, 0.5 * (lo + hi) - inv_c)
    slack = p_max_w - p.sum()
    free = p > floors + opt.POWER_TOL
    if not np.any(free):
        free = np.ones_like(p, dtype=bool)
    p[free] += slack / free.sum()
    return np.maximum(p, floors)


def wide_power_cases(seed):
    """(gains, p_max, rate_min) over 1 to 1,000 users, gains over 5 and 10
    decades, with and without repeated gains (tied breakpoints), budgets
    below and above 1 W (the bisection stops at 1e-16 * max(1, P)), and a
    budget equal to the floor sum, above it by at most 1e-9 of it, or up
    to twice it."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 62, 720, 1000):
        for decades in (5, 10):
            for tied in (False, True):
                for watts in (0.05, 30.0):
                    for headroom in (0.0, 1e-9, 1.0):
                        gains = 10.0 ** rng.uniform(0.0, decades, size=n)
                        if tied:
                            gains = rng.choice(gains[: max(1, n // 8)], size=n)
                        rate_min = float(rng.uniform(1e5, 3e7))
                        need = 2.0 ** (rate_min / 1e7) - 1.0
                        # floors near watts / 2, so the budget stays on one side of 1 W
                        gains = gains * (need / gains).sum() * 2.0 / watts
                        floors = np.array([oracles.rate_floor_power(g, rate_min, 1e7) for g in gains])
                        p_max = float(floors.sum() * (1.0 + headroom * rng.uniform(0.01, 1.0)))
                        yield gains, p_max, rate_min


class TestFrameTiming:
    def test_pure_contended_when_no_static(self):
        f = opt.optimal_frame_timing(0, 10, 2, DcfParams(), t1_s=1e-3)
        assert f.alpha == 0.0
        assert f.beta == 1.0
        assert f.num_slots == 0

    def test_pure_scheduled_when_no_mobile(self):
        f = opt.optimal_frame_timing(10, 0, 2, DcfParams(), t1_s=1e-3)
        assert f.beta == 0.0
        assert f.alpha == 1.0
        assert f.t2_s == pytest.approx(5 * DcfParams().data_slot_s)

    def test_degenerate_frame_rejected(self):
        with pytest.raises(opt.DegenerateFrameError):
            opt.optimal_frame_timing(0, 0, 2, DcfParams(), t1_s=0.0)

    def test_slot_count_rounds_up(self):
        f = opt.optimal_frame_timing(5, 3, 2, DcfParams(), t1_s=0.0)
        assert f.num_slots == 3
        assert f.num_slots * 2 >= 5

    def test_split_identity_against_cascade(self):
        dcf = DcfParams()
        cascade = dcfmod.contention_cascade(100, 2, dcf)
        f = opt.optimal_frame_timing(100, 100, 2, dcf, t1_s=5e-3, num_existing=180)
        assert f.alpha + f.beta == 1.0
        want = cascade.required_beta_t2_s / (f.num_slots * dcf.data_slot_s)
        assert f.beta / f.alpha == pytest.approx(want, rel=1e-12)
        assert f.t0_s == pytest.approx(180 * dcf.pilot_time_s)
        assert f.t2_s == pytest.approx(
            f.num_slots * dcf.data_slot_s + cascade.required_beta_t2_s
        )
        f.validate(cascade=cascade)


    def test_fairness_floor_is_the_one_split_bound(self):
        # validate and the split presets' base ratio both read the floor
        # from fairness_floor: the optimal split sits on it, a split just
        # below it fails validation, and the base ratio of a scenario is it
        from ris_mac import experiments

        dcf = DcfParams()
        cascade = dcfmod.contention_cascade(100, 2, dcf)
        f = opt.optimal_frame_timing(100, 100, 2, dcf, t1_s=5e-3)
        floor = opt.fairness_floor(cascade, f.num_slots, dcf.data_slot_s)
        assert floor == cascade.required_beta_t2_s / (f.num_slots * dcf.data_slot_s)
        assert f.beta / f.alpha == pytest.approx(floor, rel=1e-12)
        f.validate(cascade=cascade)
        alpha = 1.0 / (1.0 + floor * (1 - 1e-6))
        below = dataclasses.replace(
            f, alpha=alpha, beta=1.0 - alpha, t2_s=f.num_slots * dcf.data_slot_s / alpha
        )
        with pytest.raises(ValueError, match="fairness feasibility floor"):
            below.validate(cascade=cascade)

        s = small_scenario(total_users=40)
        static_ids, mobile_ids = classify_users(s.population)
        c = len(s.ris.subchannels)
        cascade = dcfmod.contention_cascade(len(mobile_ids), c, s.dcf)
        j = -(-len(static_ids) // c)
        want = opt.fairness_floor(cascade, j, s.dcf.data_slot_s)
        assert experiments._optimal_beta_alpha(s) == want


class TestAllocatePower:
    def test_single_user_gets_full_budget(self):
        p = opt.allocate_power(np.array([3.0]), 2.0, 0.0, 1e7)
        assert p[0] == pytest.approx(2.0)

    def test_identical_gains_split_equally(self):
        p = opt.allocate_power(np.array([2.0, 2.0]), 1.0, 0.0, 1e7)
        assert p == pytest.approx([0.5, 0.5])

    def test_budget_binds_and_floors_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gains = rng.uniform(0.5, 50.0, size=5)
            p_max = 1.0
            rate_min = 0.2e7  # floors stay loose
            p = opt.allocate_power(gains, p_max, rate_min, 1e7)
            assert p.sum() == pytest.approx(p_max, abs=1e-9)
            floors = np.array([oracles.rate_floor_power(g, rate_min, 1e7) for g in gains])
            assert np.all(p >= floors - 1e-12)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            gains = rng.uniform(0.5, 50.0, size=4)
            floors = np.array([oracles.rate_floor_power(g, 0.3e7, 1e7) for g in gains])
            p = opt.allocate_power(gains, 1.0, 0.3e7, 1e7)
            assert power_kkt_residual(p, gains, 1.0, floors) < 1e-8

    def test_pairwise_transfers_never_improve(self):
        # exchange-argument oracle: moving eps power between any two users
        # (respecting floors) must not increase the objective
        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(30):
            n = int(rng.integers(2, 6))
            gains = rng.uniform(0.5, 40.0, size=n)
            rate_min = 0.1e7
            floors = np.array([oracles.rate_floor_power(g, rate_min, 1e7) for g in gains])
            p = opt.allocate_power(gains, 1.0, rate_min, 1e7)
            base = sum_rate(gains, p)
            for i in range(n):
                for j in range(n):
                    if i == j or p[i] - eps < floors[i]:
                        continue
                    q = p.copy()
                    q[i] -= eps
                    q[j] += eps
                    assert sum_rate(gains, q) <= base + 1e-12

    def test_infeasible_floor_names_user(self):
        with pytest.raises(opt.InfeasibleError) as e:
            opt.allocate_power(
                np.array([1e-6, 10.0]), 1.0, 1e7, 1e7, user_ids=["u7", "u9"]
            )
        assert "u7" in str(e.value)

    def test_array_floors_equal_the_scalar_floor_bitwise(self):
        # allocate_power's floors are this one array division; IEEE division
        # is correctly rounded, so each equals rate_floor_power's bits
        rng = np.random.default_rng(11)
        gains = np.concatenate([np.logspace(-6, 6, 241), 10.0 ** rng.uniform(-6, 6, 500)])
        for rate_min in (0.0, 1e4, 0.3e7, 2.5e7):
            floors = np.divide(
                2.0 ** (rate_min / 1e7) - 1.0, gains,
                out=np.full(gains.size, math.inf), where=gains > 0,
            )
            want = [oracles.rate_floor_power(g, rate_min, 1e7) for g in gains.tolist()]
            assert floors.tolist() == want

    def test_zero_gain_names_its_user_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(opt.InfeasibleError) as e:
                opt.allocate_power(
                    np.array([5.0, 0.0, 2.0]), 1.0, 1e4, 1e7, user_ids=[4, 8, 15]
                )
        assert str(e.value).startswith("rate floor infeasible for user 8: needs inf W")

    def test_matches_the_scalar_floor_bisection_closely(self):
        # the closed form against the bisection oracle: within 1e-14 * P of
        # it, on budget to POWER_TOL, on or above every floor, and one level
        # p_k + 1/c_k for the users more than POWER_TOL above their floors
        # (the ones the slack step treats as free); at least half the
        # random instances bind some floor
        def check(gains, p_max, rate_min):
            got = opt.allocate_power(gains, p_max, rate_min, 1e7)
            floors = np.array([oracles.rate_floor_power(g, rate_min, 1e7) for g in gains])
            assert np.all(np.abs(got - bisection_powers(gains, p_max, rate_min, 1e7))
                          <= 1e-14 * p_max)
            assert abs(got.sum() - p_max) <= opt.POWER_TOL * max(1.0, p_max)
            assert np.all(got >= floors)
            levels = (got + 1.0 / gains)[got > floors + opt.POWER_TOL]
            if levels.size:
                assert levels.max() - levels.min() <= 1e-15 * levels.max()
            return got, floors

        rng = np.random.default_rng(13)
        bound = 0
        for _ in range(200):
            n = int(rng.integers(1, 40))
            gains = 10.0 ** rng.uniform(-1, 4, size=n)
            rate_min = float(rng.uniform(1e5, 3e7))
            floors = np.array([oracles.rate_floor_power(g, rate_min, 1e7) for g in gains])
            p_max = float(floors.sum() * rng.uniform(1.01, 3.0))
            got, floors = check(gains, p_max, rate_min)
            bound += int(np.any(got == floors))
        assert bound >= 100
        cases = 0
        for gains, p_max, rate_min in wide_power_cases(29):
            check(gains, p_max, rate_min)
            cases += 1
        assert cases == 120

    @pytest.mark.parametrize("gain, p_max", [(1e3, 1.0), (7.0, 30.0), (1e6, 581.0)])
    def test_one_user_stops_when_a_step_moves_nothing(self, gain, p_max):
        # one ulp of a single user's level above 1 W exceeds the oracle's
        # stop width 1e-16 * P, so its bracket stops shrinking long before
        # step 200 and every later step moves nothing; the closed form, with
        # its two np.maximum calls, gives the same bits as the 200 steps
        gains = np.array([gain])
        with mock.patch.object(np, "maximum", wraps=np.maximum) as maximum:
            got = opt.allocate_power(gains, p_max, 1e4, 1e7)
        assert maximum.call_count == 2
        assert got.tobytes() == bisection_powers(gains, p_max, 1e4, 1e7).tobytes()

    def test_sums_the_powers_a_few_times_a_call(self):
        # one np.maximum forms the powers from the closed-form level and one
        # keeps the floors after the slack step; the plain bisection summed
        # about 55 times at 720 users
        rng = np.random.default_rng(37)
        gains = 10.0 ** rng.uniform(3.0, 3.7, size=720)
        with mock.patch.object(np, "maximum", wraps=np.maximum) as maximum:
            opt.allocate_power(gains, 7.2, 1e6, 1e7)
        assert maximum.call_count == 2

    def test_three_user_grid_oracle(self):
        # 1e-3-resolution search over the budget simplex (acceptance runs
        # the full 100-instance version)
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 1.0, 1001)
        p1, p2 = np.meshgrid(grid, grid, indexing="ij")
        p3 = 1.0 - p1 - p2
        feasible = p3 >= 0.0
        for _ in range(5):
            gains = rng.uniform(0.5, 30.0, size=3)
            obj = (
                np.log2(1.0 + gains[0] * p1)
                + np.log2(1.0 + gains[1] * p2)
                + np.log2(1.0 + gains[2] * np.where(feasible, p3, 0.0))
            )
            best_grid = float(obj[feasible].max())
            p = opt.allocate_power(gains, 1.0, 0.0, 1e7)
            got = sum_rate(gains, p)
            assert got >= best_grid - 1e-9
            assert abs(got - best_grid) <= 1e-3


def brute_force_assignment(rates, num_slots):
    x, m = rates.shape
    nodes = [(mm, j) for mm in range(m) for j in range(num_slots)]
    best = -math.inf
    for perm in itertools.permutations(range(len(nodes)), x):
        val = sum(rates[k, nodes[node][0]] for k, node in enumerate(perm))
        best = max(best, val)
    return best


class TestAssignment:
    def test_dominant_diagonal_identity(self):
        rates = np.eye(3) * 10.0 + 1.0
        ris_of, slot_of, obj = opt.assign_ris_static(rates, 1)
        assert list(ris_of) == [0, 1, 2]
        assert obj == pytest.approx(33.0)

    def test_all_equal_rates_any_feasible(self):
        rates = np.full((4, 2), 7.0)
        ris_of, slot_of, obj = opt.assign_ris_static(rates, 2)
        assert obj == pytest.approx(28.0)
        counts = np.bincount(ris_of, minlength=2)
        assert np.all(counts <= 2)
        for m in range(2):
            slots = sorted(slot_of[k] for k in range(4) if ris_of[k] == m)
            assert slots == list(range(len(slots)))

    def test_capacity_violation_rejected(self):
        with pytest.raises(opt.InfeasibleError):
            opt.assign_ris_static(np.ones((5, 2)), 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            x, m, j = rng.integers(1, 5), rng.integers(1, 4), rng.integers(1, 3)
            if x > m * j:
                continue
            rates = rng.uniform(1.0, 20.0, size=(x, m))
            _, _, obj = opt.assign_ris_static(rates, j)
            assert obj == pytest.approx(brute_force_assignment(rates, j), abs=1e-9)

    def test_deterministic_given_matrix(self):
        rng = np.random.default_rng(8)
        rates = rng.uniform(1.0, 20.0, size=(5, 3))
        first = opt.assign_ris_static(rates, 2)
        second = opt.assign_ris_static(rates.copy(), 2)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestCentralizedConfig:
    def test_single_user_single_ris_one_iteration(self):
        s = small_scenario(total_users=1, ratio=(1, 0, 0), num_ris=1, elements=4)
        ch = chan.draw_channels(s, 1)
        ris_of, slot_of, obj = opt.centralized_ris_config(
            ch, [0], np.array([0.01]), s.radio.noise_w,
            s.radio.subchannel_bw_hz, num_slots=1,
            surface_lists=s.ris.surfaces_by_subchannel,
        )
        assert ris_of[0] == 0 and slot_of[0] == 0
        rates = chan.aligned_rate_matrix(
            ch, [0], np.array([0.01]), s.radio.noise_w, s.radio.subchannel_bw_hz
        )
        assert obj == rates[0, 0]

    def test_matches_brute_force_with_aligned_phases(self):
        s = small_scenario(total_users=8, ratio=(1, 1, 0), num_ris=2, elements=4)
        ch = chan.draw_channels(s, 2)
        static_ids, _ = classify_users(s.population)
        rho = np.full(len(static_ids), 0.01)
        _, _, obj = opt.centralized_ris_config(
            ch, static_ids, rho, s.radio.noise_w, s.radio.subchannel_bw_hz, num_slots=2,
            surface_lists=s.ris.surfaces_by_subchannel,
        )
        rates = chan.aligned_rate_matrix(
            ch, static_ids, rho, s.radio.noise_w, s.radio.subchannel_bw_hz
        )
        assert obj == pytest.approx(brute_force_assignment(rates, 2), rel=1e-9)

    def test_objective_monotone_over_random_instances(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            x = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            rates = rng.uniform(1.0, 9.0, size=(x, m))
            num_slots = -(-x // m)
            prev = -math.inf
            for _ in range(3):
                _, _, obj = opt.assign_ris_static(rates, num_slots)
                assert obj >= prev - 1e-12
                prev = obj


class TestDistributedSelect:
    def test_single_idle_ris_chosen(self):
        s = small_scenario(total_users=4, num_ris=2, elements=4)
        ch = chan.draw_channels(s, 3)
        m, _ = opt.distributed_ris_select(
            ch, 0, [1], 0.01, s.radio.noise_w, s.radio.subchannel_bw_hz
        )
        assert m == 1

    def test_stronger_reflect_path_wins(self):
        n = 4
        g = np.zeros((1, 2, n), dtype=complex)
        h = np.zeros((1, 2, n), dtype=complex)
        g[0, 0] = 1.0
        h[0, 0] = 1.0
        g[0, 1] = 2.0
        h[0, 1] = 2.0
        ch = chan.ChannelRealization(g=g, h=h, r=np.array([1.0 + 0j]))
        m, _ = opt.distributed_ris_select(ch, 0, [0, 1], 1.0, 1.0, 1e7)
        assert m == 1

    def test_empty_idle_set_rejected(self):
        s = small_scenario(total_users=2, num_ris=1, elements=2)
        ch = chan.draw_channels(s, 4)
        with pytest.raises(opt.InfeasibleError):
            opt.distributed_ris_select(ch, 0, [], 0.01, 1e-12, 1e7)

    def test_matches_exhaustive_over_idle_set(self):
        rng = np.random.default_rng(5)
        s = small_scenario(total_users=6, num_ris=4, elements=4)
        ch = chan.draw_channels(s, 6)
        for _ in range(100):
            k = int(rng.integers(0, 6))
            idle = sorted(rng.choice(4, size=int(rng.integers(1, 5)), replace=False))
            m, _ = opt.distributed_ris_select(
                ch, k, idle, 0.01, s.radio.noise_w, s.radio.subchannel_bw_hz
            )
            gains = {
                mm: oracles.amplitude_snr(
                    aligned_gain_magnitude(ch.r[k], ch.h[k, mm], ch.g[k, mm]), 0.01, s.radio.noise_w
                )
                for mm in idle
            }
            assert m == max(idle, key=lambda mm: gains[mm])


    def test_surface_table_matches_select_on_every_channel(self):
        # the frames' table (best_surfaces) against distributed_ris_select
        # and a scalar loop over the rate chain with the rule spelled out,
        # on the c4 network with its surfaces bonded two to a subchannel;
        # user 0's second surface on each subchannel is an exact tie with
        # its first, which the rule keeps
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                            "scenario_c4.json")
        s = load_scenario(path)
        s = dataclasses.replace(s, ris=dataclasses.replace(s.ris, subchannel_of_ris=(1, 1, 0, 0)))
        ch = chan.draw_channels(s, 1)
        lists = [[m for m, c in enumerate(s.ris.subchannel_of_ris) if c == sub]
                 for sub in s.ris.subchannels]
        assert lists == [[2, 3], [0, 1]]
        assert s.ris.surfaces_by_subchannel == ((2, 3), (0, 1))
        amp = ch.aligned_amplitude
        amp[0, 3], amp[0, 1] = amp[0, 2], amp[0, 0]
        users = list(range(s.population.num_total))
        power = np.random.default_rng(7).uniform(1e-3, 1e-1, size=len(users))
        noise, bw = s.radio.noise_w, s.radio.subchannel_bw_hz
        surface, rate = opt.best_surfaces(ch, users, lists, power, noise, bw)
        assert surface.shape == rate.shape == (len(users), len(lists))
        for k in users:
            for c, ms in enumerate(lists):
                best_m, best = -1, -1.0
                for m in ms:
                    r = oracles.rate_bps(oracles.amplitude_snr(amp[k, m], power[k], noise), bw)
                    if r > best + 1e-15:
                        best_m, best = m, r
                assert (surface[k, c], rate[k, c]) == (best_m, best), (k, ms)
                want = opt.distributed_ris_select(ch, k, ms, power[k], noise, bw)
                assert want == (best_m, best), (k, ms)
        assert surface[0].tolist() == [2, 0]
        # both surfaces win somewhere, so the table does not just keep the first
        assert {int(m) for m in surface[:, 0]} == {2, 3}


class TestJointOptimize:
    def test_objective_trace_nondecreasing(self):
        for seed in range(50):
            s = small_scenario(total_users=6, ratio=(1, 1, 1), num_ris=2, elements=4, seed=seed)
            ch = chan.draw_channels(s, seed)
            res = opt.joint_optimize(s, ch)
            trace = res.objective_trace
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_no_static_skips_scheduled_path(self):
        s = small_scenario(total_users=6, ratio=(0, 1, 0), num_ris=2, elements=4)
        ch = chan.draw_channels(s, 7)
        res = opt.joint_optimize(s, ch)
        assert res.throughput_scheduled_bps == 0.0
        assert res.frame.alpha == 0.0
        assert res.objective_trace == []

    def test_deterministic_given_seed(self):
        s = small_scenario(total_users=8, seed=9)
        ch = chan.draw_channels(s, 9)
        a = opt.joint_optimize(s, ch)
        b = opt.joint_optimize(s, ch)
        assert a.throughput_overall_bps == b.throughput_overall_bps
        assert np.array_equal(a.allocation.ris_of_user, b.allocation.ris_of_user)
        assert np.array_equal(a.allocation.rho_sq_w, b.allocation.rho_sq_w)

    @pytest.mark.parametrize("num_ris", [1, 2, 3, 4])
    @pytest.mark.parametrize("ratio", [(5, 4, 1), (3, 6, 1)])
    def test_mobile_surfaces_equal_the_per_user_select_loop(self, num_ris, ratio):
        for seed in (1, 2, 3):
            s = small_scenario(total_users=40, ratio=ratio, num_ris=num_ris, seed=seed)
            ch = chan.draw_channels(s, seed)
            res = opt.joint_optimize(s, ch)
            want = [
                opt.distributed_ris_select(
                    ch, k, range(num_ris), s.radio.tx_power_mobile_w,
                    s.radio.noise_w, s.radio.subchannel_bw_hz,
                )[0]
                for k in res.mobile_ids
            ]
            assert res.allocation.ris_of_user[res.mobile_ids].tolist() == want

    def test_mobile_surface_tie_goes_to_the_lower_id(self):
        s = small_scenario(total_users=40, ratio=(3, 6, 1), num_ris=2, seed=4)
        ch = chan.draw_channels(s, 4)
        amp = ch.aligned_amplitude
        amp[:, 1] = amp[:, 0]
        res = opt.joint_optimize(s, ch)
        assert res.allocation.ris_of_user[res.mobile_ids].tolist() == [0] * len(res.mobile_ids)

    def test_allocation_passes_standalone_audit(self):
        s = small_scenario(total_users=10, seed=12)
        ch = chan.draw_channels(s, 12)
        res = opt.joint_optimize(s, ch)
        bad = opt.check_allocation(
            res.allocation, res.static_ids, res.mobile_ids,
            s.ris.subchannel_of_ris, res.frame.num_slots, s.radio.p_max_w,
        )
        assert bad == []

    def test_audit_reports_out_of_range_ris(self):
        s = small_scenario(total_users=10, seed=12)
        ch = chan.draw_channels(s, 12)
        res = opt.joint_optimize(s, ch)
        m = s.ris.num_ris
        k_static, k_mobile = res.static_ids[0], res.mobile_ids[0]
        res.allocation.ris_of_user[k_static] = m
        res.allocation.ris_of_user[k_mobile] = m
        bad = opt.check_allocation(
            res.allocation, res.static_ids, res.mobile_ids,
            s.ris.subchannel_of_ris, res.frame.num_slots, s.radio.p_max_w,
        )
        assert bad == [
            "static user %d holds RIS %d, not one of 0..%d" % (k_static, m, m - 1),
            "mobile user %d holds RIS %d, not -1 or one of 0..%d" % (k_mobile, m, m - 1),
        ]

    def test_audit_flags_shared_subchannel_slot(self):
        # surfaces 0 and 2 are both bonded to subchannel 0, so slot 0 on
        # each is one slot held twice
        alloc = opt.empty_allocation(2)
        alloc.ris_of_user[:] = [0, 2]
        alloc.slot_of_user[:] = [0, 0]
        bad = opt.check_allocation(alloc, [0, 1], [], (0, 1, 0), num_slots=1, p_max_w=1.0)
        assert bad == ["subchannel 0 slot 0 held by users 0 and 1"]

    @pytest.mark.parametrize("ris_of, slot_of, rho, mobile_ids, want", [
        # static users 0-2 throughout; three surfaces on subchannels
        # (0, 1, 0), two slots, a 1 W budget
        ([-1, 3, 1], [0, 0, 1], [0.2] * 3, [], [
            "static user 0 holds RIS -1, not one of 0..2",
            "static user 1 holds RIS 3, not one of 0..2",
        ]),
        ([0, 1, 2], [-1, 2, 1], [0.2] * 3, [], [
            "static user 0 must hold exactly one data slot",
            "static user 1 must hold exactly one data slot",
        ]),
        ([0, 1, 2, -1, -2, 3], [0, 0, 1, -1, -1, -1], [0.2] * 6, [3, 4, 5], [
            "mobile user 4 holds RIS -2, not -1 or one of 0..2",
            "mobile user 5 holds RIS 3, not -1 or one of 0..2",
        ]),
        # the mobile user's power is outside the static budget
        ([0, 1, 2, 0], [0, 0, 1, -1], [0.5, 0.25, 0.5, 9.0], [3], [
            "static power budget exceeded: 1.25 > 1",
        ]),
    ])
    def test_audit_names_each_violation(self, ris_of, slot_of, rho, mobile_ids, want):
        alloc = opt.empty_allocation(len(ris_of))
        alloc.ris_of_user[:] = ris_of
        alloc.slot_of_user[:] = slot_of
        alloc.rho_sq_w[:] = rho
        bad = opt.check_allocation(
            alloc, [0, 1, 2], mobile_ids, (0, 1, 0), num_slots=2, p_max_w=1.0
        )
        assert bad == want

    def test_audit_equals_the_per_user_oracle(self):
        # corrupted allocations: surfaces and slots in and out of range,
        # pairs held by two and by three users, static users listed out of
        # order, and budgets over and under the sum of the powers; the ids
        # come as lists and as arrays
        rng = np.random.default_rng(804)
        flagged = 0
        for _ in range(400):
            n = int(rng.integers(0, 30))
            num_ris, num_slots = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            subchannel_of_ris = tuple(rng.integers(0, 3, size=num_ris).tolist())
            alloc = opt.empty_allocation(n)
            alloc.ris_of_user[:] = rng.integers(-2, num_ris + 2, size=n)
            alloc.slot_of_user[:] = rng.integers(-2, num_slots + 2, size=n)
            alloc.rho_sq_w[:] = rng.uniform(0.0, 0.3, size=n)
            ids = rng.permutation(n).tolist()
            cut = int(rng.integers(0, n + 1))
            static_ids = ids[:cut] if rng.random() < 0.3 else sorted(ids[:cut])
            mobile_ids = sorted(ids[cut:])
            p_max = float(rng.uniform(0.5, 3.0))
            args = (alloc, static_ids, mobile_ids, subchannel_of_ris, num_slots, p_max)
            want = oracles.check_allocation(*args)
            assert opt.check_allocation(*args) == want
            as_arrays = (np.asarray(static_ids, dtype=int), np.asarray(mobile_ids, dtype=int))
            assert opt.check_allocation(alloc, *as_arrays, *args[3:]) == want
            flagged += len(want) > 0
        assert flagged > 300

    @pytest.mark.parametrize("p_max", [1.0, 1e5])
    def test_audit_budget_tolerance_scales_with_the_budget(self, p_max):
        # 1e-9 * P over is reported at either budget; two ulps of P over,
        # as water-filled powers can sum, is not
        alloc = opt.empty_allocation(2)
        alloc.ris_of_user[:] = [0, 1]
        alloc.slot_of_user[:] = [0, 0]

        def audit(total):
            alloc.rho_sq_w[:] = [0.5 * p_max, total - 0.5 * p_max]
            return opt.check_allocation(alloc, [0, 1], [], (0, 1), num_slots=1, p_max_w=p_max)

        over = p_max * (1.0 + 1e-9)
        assert audit(over) == ["static power budget exceeded: %.6g > %.6g" % (over, p_max)]
        assert audit(np.nextafter(np.nextafter(p_max, math.inf), math.inf)) == []

    def test_power_step_decrease_keeps_previous_iterate(self):
        # the assignment step ignores the rate floors; on this draw the
        # floored power step of the second sweep lowers the objective
        s = small_scenario(total_users=10, ratio=(5, 4, 1), num_ris=2, elements=4, seed=20)
        ch = chan.draw_channels(s, 20)
        res = opt.joint_optimize(s, ch)
        trace = res.objective_trace
        assert res.sweeps == len(trace) + 1
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        bad = opt.check_allocation(
            res.allocation, res.static_ids, res.mobile_ids,
            s.ris.subchannel_of_ris, res.frame.num_slots, s.radio.p_max_w,
        )
        assert bad == []

    def test_power_feasibility(self):
        s = small_scenario(total_users=10, seed=14)
        ch = chan.draw_channels(s, 14)
        res = opt.joint_optimize(s, ch)
        static = np.asarray(res.static_ids, dtype=int)
        assert res.allocation.rho_sq_w[static].sum() <= s.radio.p_max_w + 1e-12
        bw = s.radio.subchannel_bw_hz
        for k in res.static_ids:
            m = res.allocation.ris_of_user[k]
            snr = oracles.amplitude_snr(
                aligned_gain_magnitude(ch.r[k], ch.h[k, m], ch.g[k, m]),
                res.allocation.rho_sq_w[k], s.radio.noise_w,
            )
            assert oracles.rate_bps(snr, bw) >= s.radio.rate_min_bps - 1e-6


def held_pairs(alloc, user_ids, subchannel_of_ris):
    return [
        (subchannel_of_ris[alloc.ris_of_user[k]], int(alloc.slot_of_user[k]))
        for k in user_ids
    ]


class TestSlotInvariant:
    @settings(max_examples=80, deadline=None)
    @given(
        num_ris=st.integers(1, 5),
        num_channels=st.integers(1, 4),
        total_users=st.integers(1, 16),
        ratio=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)).filter(
            lambda r: sum(r) > 0
        ),
        seed=st.integers(0, 10_000),
    )
    def test_no_subchannel_slot_held_twice(
        self, num_ris, num_channels, total_users, ratio, seed
    ):
        s = small_scenario(total_users=total_users, ratio=ratio, num_ris=num_ris,
                           elements=2, seed=seed)
        s = dataclasses.replace(
            s,
            radio=dataclasses.replace(s.radio, num_subchannels=num_channels),
            ris=build_ris_inventory(num_ris, 2, num_channels),
        )
        assert validate_scenario(s).ok
        ch = chan.draw_channels(s, seed)
        sub_of = s.ris.subchannel_of_ris
        try:
            res = opt.joint_optimize(s, ch)
            frame1, alloc1 = sim.plan_scheme1(s, ch, res.frame.t2_s)
        except opt.DegenerateFrameError:
            return
        except opt.InfeasibleError as e:
            if "rate floor" not in str(e):  # slot capacity must never run out
                raise
            return
        pairs = held_pairs(res.allocation, res.static_ids, sub_of)
        assert len(set(pairs)) == len(pairs)
        pairs = held_pairs(alloc1, range(s.population.num_existing), sub_of)
        assert len(set(pairs)) == len(pairs)
        for frame, alloc in ((res.frame, res.allocation), (frame1, alloc1)):
            bad = opt.check_allocation(
                alloc, res.static_ids, res.mobile_ids, sub_of,
                frame.num_slots, s.radio.p_max_w,
            )
            assert bad == []


def rate_increment_direct(r, h, g, rho_sq_w, noise_w, bw_hz):
    """Per-user rate gain of the aligned reflect path over direct-only,
    B*(log2(1+SNR_aligned) - log2(1+|r|^2 rho^2/sigma^2))."""
    snr_ris = oracles.amplitude_snr(aligned_gain_magnitude(r, h, g), rho_sq_w, noise_w)
    snr_direct = abs(r) ** 2 * rho_sq_w / noise_w
    return bw_hz * (math.log2(1.0 + snr_ris) - math.log2(1.0 + snr_direct))


def rate_increment_kappa(r, h, g, rho_sq_w, noise_w, bw_hz):
    """Same gain via the kappa form B*log2((kappa+dkappa)/kappa) with
    kappa = sigma^2 + |r|^2 rho^2 and
    dkappa = (|hTg|^2 + 2|r||hTg|) rho^2 at aligned phases."""
    reflect = float(np.sum(np.abs(h) * np.abs(g)))
    kappa = noise_w + abs(r) ** 2 * rho_sq_w
    dkappa = (reflect**2 + 2.0 * abs(r) * reflect) * rho_sq_w
    return bw_hz * math.log2((kappa + dkappa) / kappa)


class TestComplexity:
    def test_delta_zero_when_all_static(self):
        rep = opt.complexity_report(
            num_static=50, num_ris=2, num_elements=64, l1=4, l2=8, l3=4, num_existing=50,
            frame_time_s=1.0, kappa_s_per_op=1e-9,
        )
        assert rep.delta_ops == 0.0
        assert rep.improvement_ratio == pytest.approx(1.0)

    def test_zero_reflect_path_gives_zero_increment(self):
        got = rate_increment_direct(1.0 + 0j, np.zeros(4), np.zeros(4), 0.01, 1e-9, 1e7)
        assert got == pytest.approx(0.0, abs=1e-12)
        got_k = rate_increment_kappa(1.0 + 0j, np.zeros(4), np.zeros(4), 0.01, 1e-9, 1e7)
        assert got_k == pytest.approx(0.0, abs=1e-12)

    def test_rate_increment_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            r, h, g = random_link(rng, 5)
            direct = rate_increment_direct(r, h, g, 0.7, 0.3, 1e7)
            kappa = rate_increment_kappa(r, h, g, 0.7, 0.3, 1e7)
            assert direct == pytest.approx(kappa, rel=1e-9)
