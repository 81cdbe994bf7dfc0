"""Self-tests of the benchmark; not part of the package's suite.

    python3 -m pytest perfbench/test_perfbench.py

They run the worker on a two-value sweep, so they take a few seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "workload": "small",
    "template": {"total_users": 100, "ratio": [5, 4, 1]},
    "sweep": "users=50:75:25",
    "modes": ["proposed", "scheme1", "scheme2"],
    "seeds": [1, 2],
}


def _traced_pass(tmp_path, tag):
    got = run.run_child(SMALL, 120.0, out=str(tmp_path / ("%s.csv" % tag)),
                        spans=str(tmp_path / ("%s.jsonl" % tag)))
    assert got is not None
    return got


def test_counters_repeat_exactly(tmp_path):
    first = _traced_pass(tmp_path, "a")["layers"]
    second = _traced_pass(tmp_path, "b")["layers"]
    counts = {k: v for k, v in first.items() if run.is_exact(k)}
    assert counts == {k: second[k] for k in counts}
    assert first["optimizer.joint_optimize.calls"] == 2 * 3 * 2
    # every (value, seed) is drawn and planned once per mode
    assert first["channel.draw_channels.unique_ratio"] == pytest.approx(1 / 3)
    assert first["optimizer.joint_optimize.unique_ratio"] == pytest.approx(1 / 3)
    spans = (tmp_path / "a.jsonl").read_text().splitlines()
    assert len(spans) >= first["experiments.run_cell.calls"]


@pytest.fixture(scope="module")
def small_rows(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("rows") / "rows.csv")
    assert run.run_child(SMALL, 120.0, out=out) is not None
    rows = workloads.read_rows(out)
    reference = [
        {k: r[k] for k in ("value", "mode") + workloads.reference_columns(r["mode"])}
        for r in rows
    ]
    return rows, reference


@pytest.mark.parametrize(
    "mode, column, value",
    [
        ("proposed", "s_s_bps", "1"),  # reference column
        ("scheme2", "beta_alpha", "7"),  # reference column
        ("proposed", "served_mobile", "0.5"),  # proposed serves everyone
        ("proposed", "n_r_measured", "1e6"),  # |measured - analytic| <= 1
        ("scheme1", "served_new", "0.5"),  # scheme1 defers arrivals
        ("scheme2", "s_o_bps", "nan"),
        ("scheme2", "served_static", "1.5"),  # a fraction
    ],
)
def test_corrupted_row_fails_its_check(small_rows, mode, column, value):
    rows, reference = small_rows
    assert workloads.check_rows(rows, SMALL, reference) == []
    bad = [dict(r) for r in rows]
    idx = next(i for i, r in enumerate(bad) if r["mode"] == mode)
    bad[idx][column] = value
    failed, problems = workloads.failed_cells(bad, SMALL, reference)
    assert failed == len(SMALL["seeds"])
    assert problems and all(p.startswith("row %d " % idx) for p in problems)


def test_missing_row_fails_every_cell(small_rows):
    rows, reference = small_rows
    failed, _ = workloads.failed_cells(rows[:-1], SMALL, reference)
    assert failed == len(reference) * len(SMALL["seeds"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd-1000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_differing_counts_fail_the_traced_pass():
    same = {"simulator.events": 10.0, "dcf.solve_tau.busy_s": 0.5}
    drifted = {"simulator.events": 11.0, "dcf.solve_tau.busy_s": 0.7}
    _, differing = run._layer_metrics([{"layers": same}, {"layers": dict(same)}])
    assert differing == 0
    _, differing = run._layer_metrics([{"layers": same}, {"layers": drifted},
                                       {"layers": dict(same)}])
    assert differing == 1
