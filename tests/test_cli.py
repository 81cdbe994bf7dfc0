"""CLI surface and result persistence: exit codes, sweep parsing, stable
serialization, and byte-identical reruns."""

import dataclasses
import json
from pathlib import Path

import pytest

from ris_mac import cli
from ris_mac import io as rio
from ris_mac.experiments import SweepSpecError, parse_sweep
from ris_mac.scenario import save_scenario

from conftest import small_scenario


def save_small(tmp_path, **kw):
    s = small_scenario(**kw)
    path = str(tmp_path / "scenario.json")
    save_scenario(s, path)
    return s, path


class TestParsing:
    def test_empty_argv_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as e:
            cli.build_parser().parse_args(["validate", "--bogus"])
        assert e.value.code == cli.EXIT_USAGE

    def test_sweep_range(self):
        sweep = parse_sweep("users=50:200:25")
        assert sweep.axis == "users"
        assert sweep.values == (50, 75, 100, 125, 150, 175, 200)

    def test_sweep_ratio_list(self):
        sweep = parse_sweep("ratio=6:3:1,5:4:1")
        assert sweep.values == ((6.0, 3.0, 1.0), (5.0, 4.0, 1.0))

    def test_sweep_bad_axis(self):
        with pytest.raises(SweepSpecError):
            parse_sweep("bogus=1:2:1")

    def test_seed_specs(self):
        assert cli.parse_seeds("1,2,9") == [1, 2, 9]
        assert cli.parse_seeds("3:100") == [100, 101, 102]


class TestCommands:
    def test_validate_ok(self, tmp_path, capsys):
        _, path = save_small(tmp_path)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_OK

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        s = small_scenario()
        s = dataclasses.replace(s, radio=dataclasses.replace(s.radio, num_subchannels=0))
        path = str(tmp_path / "bad.json")
        save_scenario(s, path)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_VALIDATION

    def test_dcf_table_prints_rows(self, capsys):
        assert cli.main(["dcf-table", "--contenders", "3", "--channels", "2"]) == cli.EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("round,contenders,tau")
        assert len(out) > 1

    def test_optimize_writes_result(self, tmp_path, capsys):
        _, path = save_small(tmp_path, total_users=8)
        out = str(tmp_path / "result.json")
        code = cli.main(["optimize", "--scenario", path, "--out", out])
        assert code == cli.EXIT_OK
        payload = json.loads(Path(out).read_text())
        assert payload["frame"]["alpha"] + payload["frame"]["beta"] == pytest.approx(1.0)
        assert payload["throughput_bps"]["overall"] > 0

    def test_optimize_channel_replay_round_trip(self, tmp_path, capsys):
        _, path = save_small(tmp_path, total_users=8)
        dump = str(tmp_path / "channels.json")
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert cli.main(["optimize", "--scenario", path, "--dump-channels", dump, "--out", out1]) == 0
        assert cli.main(["optimize", "--scenario", path, "--replay-channels", dump, "--out", out2]) == 0
        a = json.loads(Path(out1).read_text())
        b = json.loads(Path(out2).read_text())
        assert a["throughput_bps"]["overall"] == pytest.approx(
            b["throughput_bps"]["overall"], rel=1e-12
        )

    def test_empty_seed_list_is_runtime_error(self, tmp_path, capsys):
        _, path = save_small(tmp_path)
        code = cli.main([
            "experiment", "--scenario", path, "--sweep", "point",
            "--seeds", "", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == cli.EXIT_RUNTIME

    def test_simulate_writes_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RIS_MAC_TIMESTAMP", "pinned")
        _, path = save_small(tmp_path, total_users=8)
        out = str(tmp_path / "frames.csv")
        assert cli.main(["simulate", "--scenario", path, "--frames", "1", "--out", out]) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["outputs"][out] == rio.file_sha256(out)

    def test_infeasible_rate_floor_exit_code(self, tmp_path, capsys):
        s = small_scenario(total_users=8, rate_min_bps=1e9)
        path = str(tmp_path / "tight.json")
        save_scenario(s, path)
        assert cli.main(["optimize", "--scenario", path]) == cli.EXIT_INFEASIBLE

    def test_cascade_past_round_cap_is_infeasible(self, capsys):
        code = cli.main(["dcf-table", "--contenders", "600", "--channels", "1"])
        assert code == cli.EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: non-terminating cascade: 10000 rounds")

    def test_simulate_runs(self, tmp_path, capsys):
        _, path = save_small(tmp_path, total_users=8)
        out = str(tmp_path / "frames.csv")
        code = cli.main([
            "simulate", "--scenario", path, "--mode", "proposed",
            "--frames", "2", "--out", out,
        ])
        assert code == cli.EXIT_OK
        rows = rio.read_csv(out)
        assert len(rows) == 2
        assert rows[0]["mode"] == "proposed"

    def test_experiment_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RIS_MAC_TIMESTAMP", "pinned")
        _, path = save_small(tmp_path, total_users=8)
        out = str(tmp_path / "results.csv")
        code = cli.main([
            "experiment", "--scenario", path, "--sweep", "users=6:10:4",
            "--modes", "proposed,scheme2", "--seeds", "1,2", "--out", out,
        ])
        assert code == cli.EXIT_OK
        rows = rio.read_csv(out)
        assert {r["mode"] for r in rows} == {"proposed", "scheme2"}
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["outputs"][out] == rio.file_sha256(out)
        assert manifest["timestamp"] == "pinned"


class TestWriteResults:
    def test_empty_table_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        rio.write_table([], ("a", "b"), path)
        assert Path(path).read_text() == "a,b\n"

    def test_round_trip_values(self, tmp_path):
        path = str(tmp_path / "t.csv")
        rows = [{"a": 1.23456789012345e7, "b": "x"}, {"a": 0.5, "b": "y"}]
        rio.write_table(rows, ("a", "b"), path)
        back = rio.read_csv(path)
        assert float(back[0]["a"]) == pytest.approx(rows[0]["a"], rel=1e-11)
        assert back[1]["b"] == "y"

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIS_MAC_TIMESTAMP", "2000-01-01T00:00:00Z")
        _, path = save_small(tmp_path, total_users=8)
        outs = []
        for tag in ("one", "two"):
            out = str(tmp_path / ("%s.csv" % tag))
            code = cli.main([
                "experiment", "--scenario", path, "--sweep", "point",
                "--modes", "proposed", "--seeds", "1,2", "--out", out,
            ])
            assert code == cli.EXIT_OK
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_json_format(self, tmp_path):
        path = str(tmp_path / "t.json")
        rio.write_table([{"a": 1.0}], ("a",), path, fmt="json")
        assert json.loads(Path(path).read_text()) == [{"a": "1"}]
