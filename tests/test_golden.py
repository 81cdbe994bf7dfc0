"""Byte-identity of the result tables against stored golden CSVs.

The files in tests/golden/ were written by the same commands as below, with
RIS_MAC_THREADS=1 and RIS_MAC_TIMESTAMP pinned; each command ends with the
flag that names the compared file.  The events_*.csv files pin every
TraceEvent of the contention engine, including the csi_best_channel path;
events_scheme2_c4.csv runs scenario_c4.json (4 subchannels, 4 surfaces, 120
users, written by scenario.save_scenario), so four channels resolve in one
round.  events_proposed_c4.csv runs the same scenario in the proposed mode:
its 60 static users fill 4 x 15 slots, so the assignment must move users
off over-full subchannels.  optimize_c4.json is the ``optimize`` JSON of the
same scenario and optimize_ref.json that of the reference network (M = C = 2),
so the plan's mobile surfaces, powers and S_s, S_c and S_o are pinned on
both.  fig5.csv, fig6.csv, fig8.csv and fig10.csv are ``report
--figure figN --seeds 1`` on the reference network, and dcf_table_100_2.csv
the stdout of ``dcf-table --contenders 100 --channels 2``.
elements_sweep.csv varies the surface size, so it pins the (U, M, N)
channel draws.  A refactor must leave them byte-identical; a change that
moves the numbers on purpose regenerates them with those commands and
records it in CHANGES.md.  Manifests are not compared: they hold output
paths.
"""

import os

import pytest

from ris_mac import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

RUNS = {
    "users_sweep.csv": [
        "experiment", "--sweep", "users=50:200:50",
        "--modes", "proposed,scheme1,scheme2", "--seeds", "1,2", "--out",
    ],
    "elements_sweep.csv": [
        "experiment", "--sweep", "elements=64:512:224",
        "--modes", "proposed,scheme1,scheme2", "--seeds", "1,2", "--out",
    ],
    "fig7.csv": ["report", "--figure", "fig7", "--seeds", "1", "--out"],
    "fig9.csv": ["report", "--figure", "fig9", "--seeds", "1", "--out"],
    "events_scheme2_csi.csv": [
        "simulate", "--mode", "scheme2", "--csi-best-channel", "--events",
    ],
    "events_proposed.csv": ["simulate", "--mode", "proposed", "--frames", "2", "--events"],
    "events_scheme2_c4.csv": [
        "simulate", "--scenario", os.path.join(GOLDEN_DIR, "scenario_c4.json"),
        "--mode", "scheme2", "--frames", "2", "--events",
    ],
    "events_proposed_c4.csv": [
        "simulate", "--scenario", os.path.join(GOLDEN_DIR, "scenario_c4.json"),
        "--mode", "proposed", "--frames", "2", "--events",
    ],
    "optimize_c4.json": [
        "optimize", "--scenario", os.path.join(GOLDEN_DIR, "scenario_c4.json"), "--out",
    ],
    "optimize_ref.json": ["optimize", "--out"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RIS_MAC_THREADS", "1")
    out = tmp_path / name
    assert cli.main(RUNS[name] + [str(out)]) == cli.EXIT_OK
    with open(os.path.join(GOLDEN_DIR, name), "rb") as f:
        want = f.read()
    assert out.read_bytes() == want


def test_dcf_table_matches_golden(capsys):
    argv = ["dcf-table", "--contenders", "100", "--channels", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    with open(os.path.join(GOLDEN_DIR, "dcf_table_100_2.csv"), "rb") as f:
        want = f.read()
    assert capsys.readouterr().out.encode() == want


def test_pool_path_matches_golden(tmp_path, monkeypatch, capsys):
    """Two worker processes write the serial path's bytes.  Each worker keeps
    its own memo of normals and takes jobs in whatever order they come, so
    fig7 (memo and streamed draws) and fig9 (one user count) run here too."""
    monkeypatch.setenv("RIS_MAC_THREADS", "2")
    for name in ("users_sweep.csv", "fig7.csv", "fig9.csv"):
        out = tmp_path / name
        assert cli.main(RUNS[name] + [str(out)]) == cli.EXIT_OK
        with open(os.path.join(GOLDEN_DIR, name), "rb") as f:
            want = f.read()
        assert out.read_bytes() == want, name


@pytest.mark.parametrize("figure", ["fig5", "fig6", "fig8", "fig10"])
def test_report_preset_runs(figure, tmp_path, monkeypatch, capsys):
    """The presets not in RUNS run on the reference network and match their
    goldens, so with fig7 and fig9 every preset is pinned."""
    monkeypatch.setenv("RIS_MAC_THREADS", "1")
    out = tmp_path / (figure + ".csv")
    argv = ["report", "--figure", figure, "--seeds", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    with open(os.path.join(GOLDEN_DIR, figure + ".csv"), "rb") as f:
        assert out.read_bytes() == f.read()
