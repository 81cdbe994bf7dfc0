"""Sweep bookkeeping: a (value, seed) is drawn and planned once for all modes."""

from ris_mac import channel as chan
from ris_mac import cli
from ris_mac import experiments as exp
from ris_mac.simulator import MODES

from conftest import small_scenario


def test_modes_share_one_draw_and_plan(monkeypatch):
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
    values, seeds = (8, 12), (1, 2, 3)
    rows = exp.run_experiment(
        small_scenario(total_users=12), exp.SweepSpec("users", values), seeds, modes=MODES
    )
    k, s = len(values), len(seeds)
    assert calls == {"draw": k * s, "plan": k * s, "cell": k * s * len(MODES)}
    assert [(r["value"], r["mode"], r["seeds"]) for r in rows] == [
        (v, m, s) for v in values for m in MODES
    ]


def test_repeated_value_averages_each_seed_once(monkeypatch):
    # a value listed twice gives two rows, each the same as the value's own row
    monkeypatch.setenv("RIS_MAC_THREADS", "1")
    template, seeds = small_scenario(total_users=12), (1, 2, 3)
    once = exp.run_experiment(template, exp.SweepSpec("users", (8,)), seeds, modes=MODES)
    twice = exp.run_experiment(template, exp.SweepSpec("users", (8, 8)), seeds, modes=MODES)
    assert [str(r) for r in twice] == [str(r) for r in once + once]  # NaN-safe equality
    assert {r["seeds"] for r in twice} == {len(seeds)}


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
