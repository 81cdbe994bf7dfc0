"""Sweep bookkeeping: a (value, seed) is drawn and planned once for all
modes, a split sweep draws and plans once per seed, and jobs run seed by
seed."""

import pytest

from ris_mac import channel as chan
from ris_mac import cli
from ris_mac import experiments as exp
from ris_mac.scenario import default_scenario, save_scenario
from ris_mac.simulator import MODES

from conftest import small_scenario


def counted_calls(monkeypatch):
    calls = {"draw": 0, "plan": 0, "cell": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setenv("RIS_MAC_THREADS", "1")
    monkeypatch.setattr(chan, "draw_channels", counted("draw", chan.draw_channels))
    monkeypatch.setattr(exp, "joint_optimize", counted("plan", exp.joint_optimize))
    monkeypatch.setattr(exp, "run_cell", counted("cell", exp.run_cell))
    return calls


@pytest.mark.parametrize(
    "sweep",
    [exp.SweepSpec("users", (8, 12)), exp.SweepSpec("beta-alpha", (0.5, 1.0, 2.0))],
    ids=lambda sweep: sweep.axis,
)
def test_modes_share_one_draw_and_plan(monkeypatch, sweep):
    calls = counted_calls(monkeypatch)
    seeds = (1, 2, 3)
    rows = exp.run_experiment(small_scenario(total_users=12), sweep, seeds, modes=MODES)
    k, s = len(sweep.values), len(seeds)
    plans = s if sweep.axis == "beta-alpha" else k * s  # each split re-times its seed's plan
    assert calls == {"draw": plans, "plan": plans, "cell": k * s * len(MODES)}
    assert [(r["value"], r["mode"], r["seeds"]) for r in rows] == [
        (v, m, s) for v in sweep.values for m in MODES
    ]


@pytest.mark.parametrize(
    "axis, value", [("users", 8), ("beta-alpha", 1.0)], ids=["users", "beta-alpha"]
)
def test_repeated_value_averages_each_seed_once(monkeypatch, axis, value):
    # a value listed twice gives two rows, each the same as the value's own row
    monkeypatch.setenv("RIS_MAC_THREADS", "1")
    template, seeds = small_scenario(total_users=12), (1, 2, 3)
    once = exp.run_experiment(template, exp.SweepSpec(axis, (value,)), seeds, modes=MODES)
    twice = exp.run_experiment(template, exp.SweepSpec(axis, (value, value)), seeds, modes=MODES)
    assert [str(r) for r in twice] == [str(r) for r in once + once]  # NaN-safe equality
    assert {r["seeds"] for r in twice} == {len(seeds)}


@pytest.mark.parametrize("figure, cells", [("fig6", 63), ("fig10", 45)])
def test_split_figures_plan_once_per_ratio_and_seed(monkeypatch, figure, cells):
    # 3 class mixes x 3 seeds; each split multiplier is a re-timed cell
    calls = counted_calls(monkeypatch)
    exp.run_figure(figure, default_scenario(), (1, 2, 3))
    assert calls == {"draw": 9, "plan": 9, "cell": cells}


def test_split_sweep_without_static_user_fails_before_any_draw(monkeypatch, tmp_path, capsys):
    calls = counted_calls(monkeypatch)
    path = str(tmp_path / "all_mobile.json")
    save_scenario(default_scenario(total_users=20, ratio=(0, 1, 0)), path)
    argv = [
        "experiment", "--scenario", path, "--sweep", "beta-alpha=0.5,1.0",
        "--seeds", "1,2", "--out", str(tmp_path / "out.csv"),
    ]
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert "beta/alpha override needs a scheduled period" in capsys.readouterr().err
    assert calls == {"draw": 0, "plan": 0, "cell": 0}


def test_users_sweep_keeps_the_template_class_mix():
    # an 18:1:1 template swept to 100 users stays 18:1:1 (90:5:5), where
    # the 5:4:1 default would give 50:40:10
    template = default_scenario(total_users=800, ratio=(18, 1, 1))
    pop = exp.scenario_for_value(template, "users", 100).population
    assert (pop.num_static, pop.num_existing - pop.num_static, pop.num_new_mobile) == (90, 5, 5)
    # on the reference 5:4:1 template the counts are the default ratio's
    reference = default_scenario()
    for total in (0, 7, 50, 333):
        swept = exp.scenario_for_value(reference, "users", total).population
        assert swept == default_scenario(total_users=total).population


def test_sweeps_and_reports_never_build_the_links(monkeypatch, tmp_path, capsys):
    # every rate reads the aligned amplitude, so a sweep or a figure that
    # needed the complex g and h would fail here
    draw = chan._draw

    def no_links(scenario, rng_seed, links=False):
        if links:
            raise AssertionError("complex links built")
        return draw(scenario, rng_seed)

    monkeypatch.setenv("RIS_MAC_THREADS", "1")
    monkeypatch.setattr(chan, "_draw", no_links)
    rows = exp.run_experiment(
        small_scenario(total_users=12), exp.SweepSpec("elements", (4, 8)), (1, 2), modes=MODES
    )
    assert len(rows) == 2 * len(MODES)
    out = str(tmp_path / "fig7.csv")
    assert cli.main(["report", "--figure", "fig7", "--seeds", "1", "--out", out]) == cli.EXIT_OK


@pytest.mark.parametrize(
    "sweep",
    [exp.SweepSpec("users", (12, 8, 12)), exp.SweepSpec("beta-alpha", (0.5, 1.0))],
    ids=lambda sweep: sweep.axis,
)
def test_serial_path_draws_seed_by_seed(monkeypatch, sweep):
    # jobs run seed-major, so a seed's draws at every value read one prefix
    # of its normals before the next seed replaces it in the memo
    drawn = []
    draw = chan.draw_channels

    def recorded(scenario, seed):
        drawn.append((scenario.population.num_total, seed))
        return draw(scenario, seed)

    monkeypatch.setenv("RIS_MAC_THREADS", "1")
    monkeypatch.setattr(chan, "draw_channels", recorded)
    rows = exp.run_experiment(small_scenario(total_users=12), sweep, (2, 1), modes=MODES)
    users = sweep.values if sweep.axis == "users" else (12,)
    assert drawn == [(u, seed) for seed in (2, 1) for u in users]
    assert [(r["value"], r["mode"]) for r in rows] == [(v, m) for v in sweep.values for m in MODES]
