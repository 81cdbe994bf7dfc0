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

import hashlib
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


# sha256 of the per-frame CSV and the event CSV that ``simulate --mode
# MODE --frames 3 [--csi-best-channel] --out F --events E`` writes on the
# reference network, pinned when each frame's contention still stepped its
# own loop from a Generator it built (recorded frames step a fresh run
# outside the contention memo; these pin that path in every mode)
RECORDED_DIGESTS = {
    ("proposed", False): (
        "dbd356a2b716bdf6e40740b7a6115057ab680a79b2d844910ebd44267acc656b",
        "2fb2c71f264009877fb042929fa5398ec01604b27a1225ee8768c95999bdd8fe",
    ),
    ("scheme1", False): (
        "a84f2a39016c223c600fabe7075fea2488bff3727f61db4d58df451dbeb5a048",
        "4b5aa04dba64ce286d64c97c29a299613ae6432822359d3a5e2f0fdd78415bc4",
    ),
    ("scheme2", False): (
        "fa3936ea9f7768b8c38441fc78d9e27f8f06f1a0e03a9049c3dda2a6a8ed572c",
        "8b47aa74f72d116e84466b3244b9429cba3358114823df37be2218167f57747a",
    ),
    ("proposed", True): (
        "6f8f19eca5bdfe4dc39b7a60f4de8be012d09e22717e9a2fa95da7a2d8b6b191",
        "b5eb127aa6ca8cbb3dd16653bd09243de3a2c0489b56415ef6c2e10fac37c08f",
    ),
    ("scheme1", True): (
        "a84f2a39016c223c600fabe7075fea2488bff3727f61db4d58df451dbeb5a048",
        "4b5aa04dba64ce286d64c97c29a299613ae6432822359d3a5e2f0fdd78415bc4",
    ),
    ("scheme2", True): (
        "1350488b1f28ed22757fb5acc6a14a9dad2105fd1a64b462d4c898867e1e1ac0",
        "e22d70a04380b2d125b1c8618ee3bd0ab071573207ad5b3ed26ad68f38514418",
    ),
}


@pytest.mark.parametrize("mode,csi", sorted(RECORDED_DIGESTS))
def test_recorded_frames_match_pinned_digests(mode, csi, tmp_path, capsys):
    rows, events = tmp_path / "frames.csv", tmp_path / "events.csv"
    argv = ["simulate", "--mode", mode, "--frames", "3", "--out", str(rows), "--events", str(events)]
    assert cli.main(argv + ["--csi-best-channel"] * csi) == cli.EXIT_OK
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (rows, events))
    assert got == RECORDED_DIGESTS[mode, csi]
