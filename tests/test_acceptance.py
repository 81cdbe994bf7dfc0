"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Absolute throughput depends on scenario inputs the
reference settings leave open (slot/pilot durations, control rate), so the
figure-level criteria check orderings and curve shapes, not magnitudes.
"""

import itertools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ris_mac import channel as chan
from ris_mac import dcf as dcfmod
from ris_mac import io as rio
from ris_mac import optimizer as opt
from ris_mac import simulator as sim
from ris_mac.experiments import SweepSpec, parse_sweep, run_cell, run_experiment, RESULT_COLUMNS
from ris_mac.optimizer import joint_optimize
from ris_mac.scenario import DcfParams, classify_users, default_scenario

from conftest import aligned_gain_magnitude, composite_gain, random_link
import oracles

W_PAPER, L_PAPER = 15, 6
SEEDS_20 = list(range(1, 21))


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d: FAIL  %s" % (number, label))
        raise
    elapsed = time.perf_counter() - start
    print("ACCEPTANCE %2d: PASS  %s  (%.1fs, budget %ds)" % (number, label, elapsed, budget_s))
    assert elapsed < budget_s, "runtime %.1fs over the %ds budget" % (elapsed, budget_s)


def overall_served(cell, ratio, total=200):
    rs, rm, rn = ratio
    x = round(total * rs / (rs + rm + rn))
    em = round(total * rm / (rs + rm + rn))
    z = total - x - em
    return (
        cell["served_static"] * x + cell["served_mobile"] * em + cell["served_new"] * z
    ) / total


def rising_then_saturating(values, dip_tol=0.06, net_floor=0.97, sat_slack=0.02):
    """Shape gate for the user-sweep curves: no dip beyond the tolerance,
    no net decline, and the late relative gain no larger than the early one
    (a flat curve satisfies all three)."""
    running_max = values[0]
    for v in values:
        assert v >= (1.0 - dip_tol) * running_max, "dip below %.0f%% of the running max" % (
            100 * (1 - dip_tol)
        )
        running_max = max(running_max, v)
    assert values[-1] >= net_floor * values[0], "net decline over the sweep"
    mid = len(values) // 2
    gain_early = values[mid] / values[0] - 1.0
    gain_late = values[-1] / values[mid] - 1.0
    assert gain_late <= gain_early + sat_slack, "still accelerating at the top end"


def test_criterion_1_phase_alignment_optimality():
    with criterion(1, "phase alignment attains |r| + sum|h||g| (1e-9 rel)", 5):
        rng = np.random.default_rng(101)
        for n in (1, 8, 64, 128):
            for _ in range(250):
                scale = 10.0 ** rng.uniform(-6, 0)
                r, h, g = random_link(rng, n)
                r, h, g = scale * r, scale * h, g
                aligned = abs(composite_gain(r, h, g, oracles.align_phases(r, h, g)))
                bound = aligned_gain_magnitude(r, h, g)
                assert abs(aligned - bound) <= 1e-9 * bound


def test_criterion_2_bianchi_fixed_point():
    with criterion(2, "fixed-point residuals < 1e-10 for V=1..64, W=15, l=6", 1):
        tau1, p1 = dcfmod.solve_tau(1, W_PAPER, L_PAPER)
        assert p1 == 0.0 and tau1 == 2.0 / (W_PAPER + 1)
        for v in range(1, 65):
            tau, p = dcfmod.solve_tau(v, W_PAPER, L_PAPER)
            if abs(1.0 - 2.0 * p) < 1e-9:
                tau_back = 4.0 / (2.0 * (W_PAPER + 1) + W_PAPER * L_PAPER)
            else:
                tau_back = (
                    2.0 * (1.0 - 2.0 * p)
                    / ((1.0 - 2.0 * p) * (W_PAPER + 1) + p * W_PAPER * (1.0 - (2.0 * p) ** L_PAPER))
                )
            assert abs(tau - tau_back) < 1e-10
            assert abs(p - (1.0 - (1.0 - tau) ** (v - 1))) < 1e-10


def test_criterion_3_cascade_vs_monte_carlo():
    with criterion(3, "analytic N_r within +-1 of simulated rounds, >=95% of 200 seeds", 120):
        scenario = default_scenario(total_users=200, seed=1)
        static_ids, mobile_ids = classify_users(scenario.population)
        assert len(mobile_ids) == 100
        analytic = dcfmod.contention_cascade(100, 2, scenario.dcf).n_r
        hits = 0
        s_c_ratio = []
        for seed in range(1, 201):
            channels = chan.draw_channels(scenario, seed)
            plan = joint_optimize(scenario, channels)
            trace = sim.run_frame(
                scenario, channels, plan.frame, plan.allocation, "proposed", seed
            )
            if abs(trace.n_r_measured - analytic) <= 1:
                hits += 1
            s_c_ratio.append(
                trace.throughput_contended_bps / plan.throughput_contended_bps
            )
        assert hits >= 190, "only %d/200 seeds within one round" % hits
        # analytic-consistency rider: mean simulated contended throughput
        # stays within 10% of the planner's closed form
        mean_ratio = sum(s_c_ratio) / len(s_c_ratio)
        assert abs(mean_ratio - 1.0) <= 0.10, "mean S_c ratio %.3f" % mean_ratio


def test_criterion_4_assignment_oracle():
    with criterion(4, "assignment equals exhaustive search on 200 desk instances", 30):
        rng = np.random.default_rng(104)
        checked = 0
        while checked < 200:
            x = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            j = int(rng.integers(1, 3))
            if x > m * j:
                continue
            rates = rng.uniform(0.5, 40.0, size=(x, m))
            _, _, obj = opt.assign_ris_static(rates, j)
            nodes = [(mm, jj) for mm in range(m) for jj in range(j)]
            best = max(
                sum(rates[k, nodes[node][0]] for k, node in enumerate(perm))
                for perm in itertools.permutations(range(len(nodes)), x)
            )
            assert abs(obj - best) <= 1e-9
            checked += 1


def test_criterion_5_power_oracle():
    with criterion(5, "water-filling within 1e-3 of a 1e-3-step simplex grid, 100 instances", 120):
        rng = np.random.default_rng(105)
        grid = np.linspace(0.0, 1.0, 1001)
        p1, p2 = np.meshgrid(grid, grid, indexing="ij")
        p3 = 1.0 - p1 - p2
        on_simplex = p3 >= -1e-12
        bw = 1e7
        for _ in range(100):
            gains = rng.uniform(2.0, 40.0, size=3)
            rate_min = 0.2e7
            floors = np.array([oracles.rate_floor_power(g, rate_min, bw) for g in gains])
            assert floors.sum() < 1.0
            feasible = (
                on_simplex & (p1 >= floors[0]) & (p2 >= floors[1]) & (p3 >= floors[2])
            )
            obj = (
                np.log2(1.0 + gains[0] * p1)
                + np.log2(1.0 + gains[1] * p2)
                + np.log2(1.0 + gains[2] * np.clip(p3, 0.0, None))
            )
            best_grid = float(obj[feasible].max())
            p = opt.allocate_power(gains, 1.0, rate_min, bw)
            got = float(np.sum(np.log2(1.0 + gains * p)))
            assert got >= best_grid - 1e-9
            assert abs(got - best_grid) <= 1e-3


def test_criterion_6_frame_timing_identity():
    with criterion(6, "alpha+beta=1, beta/alpha=N_r*t_r/(J*t); pure modes at X=0 / Y=0", 10):
        dcf = DcfParams()
        for x, y in ((100, 100), (120, 80), (60, 140), (7, 3)):
            cascade = dcfmod.contention_cascade(y, 2, dcf)
            f = opt.optimal_frame_timing(x, y, 2, dcf, t1_s=1e-3, cascade=cascade)
            assert f.alpha + f.beta == 1.0
            want = cascade.required_beta_t2_s / (f.num_slots * dcf.data_slot_s)
            assert abs(f.beta / f.alpha - want) <= 1e-12 * want
        pure_contended = opt.optimal_frame_timing(0, 10, 2, dcf, t1_s=0.0)
        assert pure_contended.alpha == 0.0 and pure_contended.beta == 1.0
        pure_scheduled = opt.optimal_frame_timing(10, 0, 2, dcf, t1_s=0.0)
        assert pure_scheduled.beta == 0.0 and pure_scheduled.alpha == 1.0
        with pytest.raises(opt.DegenerateFrameError):
            opt.optimal_frame_timing(0, 0, 2, dcf, t1_s=0.0)


def test_criterion_7_user_sweep_shape():
    with criterion(7, "users 50..200: proposed on top at 200; curves rise then saturate", 900):
        template = default_scenario(total_users=200, seed=1)
        rows = run_experiment(
            template,
            parse_sweep("users=50:200:25"),
            seeds=SEEDS_20,
            modes=("proposed", "scheme1", "scheme2"),
        )
        curves = {}
        for row in rows:
            curves.setdefault(row["mode"], []).append((row["value"], row["s_o_bps"]))
        for mode, pts in curves.items():
            pts.sort()
            rising_then_saturating([v for _, v in pts])
        top = {mode: dict(pts)[200] for mode, pts in curves.items()}
        assert top["proposed"] > top["scheme1"]
        assert top["proposed"] > top["scheme2"]


def test_criterion_8_split_trend():
    with criterion(8, "minimal beta/alpha increases over the class mixes; S_o falls past it", 600):
        dcf = DcfParams()
        minimal = []
        for ratio in ((6, 3, 1), (5, 4, 1), (3, 6, 1)):
            template = default_scenario(total_users=200, ratio=ratio, seed=1)
            static_ids, mobile_ids = classify_users(template.population)
            cascade = dcfmod.contention_cascade(len(mobile_ids), 2, dcf)
            j = -(-len(static_ids) // 2)
            minimal.append(cascade.required_beta_t2_s / (j * dcf.data_slot_s))
        assert minimal[0] < minimal[1] < minimal[2], "minimal splits not increasing: %s" % minimal

        template = default_scenario(total_users=200, ratio=(5, 4, 1), seed=1)
        base = minimal[1]
        sweep = SweepSpec(axis="beta-alpha", values=tuple(base * m for m in (1.0, 1.2, 1.4, 1.6)))
        rows = run_experiment(template, sweep, seeds=SEEDS_20, modes=("proposed",))
        s_o = [row["s_o_bps"] for row in rows]
        assert all(a > b for a, b in zip(s_o, s_o[1:])), "S_o not decreasing past the optimum"


def test_criterion_9_fairness_by_class_mix():
    with criterion(9, "proposed serves all; scheme1 drops with new users; scheme2 < 100%", 600):
        seeds = [1, 2, 3, 4, 5]
        scheme1_fracs = []
        for ratio in ((5, 4, 1), (5, 3, 2), (5, 2, 3)):
            template = default_scenario(total_users=200, ratio=ratio, seed=1)
            for mode in ("proposed", "scheme1", "scheme2"):
                cells = [run_cell(template, mode, s) for s in seeds]
                frac = sum(overall_served(c, ratio) for c in cells) / len(cells)
                if mode == "proposed":
                    assert frac == 1.0, "proposed served %.3f at ratio %s" % (frac, (ratio,))
                elif mode == "scheme1":
                    scheme1_fracs.append(frac)
                    assert all(c["served_new"] == 0.0 for c in cells)
                else:
                    assert frac < 1.0, "scheme2 served everyone at ratio %s" % (ratio,)
        assert scheme1_fracs[0] > scheme1_fracs[1] > scheme1_fracs[2]


def test_criterion_10_split_threshold():
    with criterion(10, "served fraction is 100% iff beta/alpha >= the optimal split", 600):
        template = default_scenario(total_users=200, ratio=(5, 4, 1), seed=1)
        static_ids, mobile_ids = classify_users(template.population)
        cascade = dcfmod.contention_cascade(len(mobile_ids), 2, template.dcf)
        j = -(-len(static_ids) // 2)
        base = cascade.required_beta_t2_s / (j * template.dcf.data_slot_s)
        for mult in (0.6, 0.8, 1.0, 1.2, 1.4):
            sweep = SweepSpec(axis="beta-alpha", values=(base * mult,))
            rows = run_experiment(template, sweep, seeds=[1, 2, 3], modes=("proposed",))
            frac = overall_served(rows[0], (5, 4, 1))
            if mult >= 1.0:
                assert frac == 1.0, "mult %.1f served %.4f" % (mult, frac)
            else:
                assert frac < 1.0, "mult %.1f served everyone" % mult


def test_criterion_11_determinism(tmp_path, monkeypatch):
    with criterion(11, "identical seeds reproduce byte-identical result files", 300):
        monkeypatch.setenv("RIS_MAC_TIMESTAMP", "2026-01-01T00:00:00Z")
        template = default_scenario(total_users=40, seed=1)
        out = str(tmp_path / "run.csv")
        blobs = []
        for _ in range(2):  # the same command twice, same output path
            rows = run_experiment(
                template,
                parse_sweep("users=20:40:20"),
                seeds=[1, 2, 3],
                modes=("proposed", "scheme1", "scheme2"),
            )
            rio.write_table(rows, RESULT_COLUMNS, out)
            rio.write_manifest(out + ".manifest.json", None, [1, 2, 3], "users=20:40:20", [out])
            blobs.append(
                (Path(out).read_bytes(), Path(out + ".manifest.json").read_bytes())
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
