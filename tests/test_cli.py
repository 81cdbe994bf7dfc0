"""CLI surface and result persistence: exit codes, sweep parsing, stable
serialization, and byte-identical reruns."""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from ris_mac import channel as chan
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

    def test_help_exits_zero(self, capsys):
        # argparse's exit code comes back as main's return value, 0 for --help
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert cli.main(["dcf-table", "--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: ris-mac")

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

    def test_console_script_resolves_to_main(self):
        # the installed ris-mac command is whatever [project.scripts] names;
        # resolve it by hand, so the check needs no install
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, _, attr = scripts["ris-mac"].partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main


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

    def test_validate_rejects_zero_window(self, tmp_path, capsys):
        s = small_scenario()
        s = dataclasses.replace(s, dcf=dataclasses.replace(s.dcf, w_min=0, w_max=0))
        path = str(tmp_path / "zero_window.json")
        save_scenario(s, path)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_VALIDATION
        assert cli.main(["simulate", "--scenario", path, "--frames", "1"]) == cli.EXIT_VALIDATION

    def test_dcf_table_prints_rows(self, capsys):
        assert cli.main(["dcf-table", "--contenders", "3", "--channels", "2"]) == cli.EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("round,contenders,tau")
        assert len(out) > 1

    @pytest.mark.parametrize("flag, value", [
        ("--channels", "0"), ("--contenders", "-3"), ("--w-min", "0"), ("--max-stage", "-1"),
    ])
    def test_dcf_table_bad_argument_is_usage_error(self, capsys, flag, value):
        argv = {"--contenders": "5", "--channels": "2", flag: value}
        code = cli.main(["dcf-table", *(x for kv in argv.items() for x in kv)])
        assert code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "error: argument %s: must be >= " % flag in err

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

    @pytest.mark.parametrize("argv", [
        ["experiment", "--sweep", "point", "--seeds", "x"],
        ["experiment", "--sweep", "point", "--seeds", ""],
        ["experiment", "--sweep", "point", "--seeds", "3:"],
        ["report", "--figure", "fig9", "--seeds", "1,x"],
        ["simulate", "--frames", "0"],
        ["simulate", "--frames", "-1"],
        ["simulate", "--frames", "two"],
    ], ids=["seeds-x", "seeds-empty", "seeds-open-range", "report-seeds-x", "frames-0",
            "frames-negative", "frames-word"])
    def test_bad_run_length_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_draw(*args, **kwargs):
            raise AssertionError("a channel draw ran before the usage error")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        _, path = save_small(tmp_path)
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--scenario", path, "--out", str(out)]) == cli.EXIT_USAGE
        assert "error: argument --" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("modes", ["proposed,scheme3", ",", ""])
    def test_bad_modes_is_usage_error_before_any_draw(self, tmp_path, capsys, monkeypatch, modes):
        draws = []

        def counted_draw(*args, **kwargs):
            draws.append(args)
            raise AssertionError("a channel draw ran before the usage error")

        monkeypatch.setattr(chan, "draw_channels", counted_draw)
        _, path = save_small(tmp_path)
        out = tmp_path / "out.csv"
        argv = ["experiment", "--sweep", "users=50:100:25", "--modes", modes, "--seeds", "1,2"]
        assert cli.main(argv + ["--scenario", path, "--out", str(out)]) == cli.EXIT_USAGE
        assert "error: argument --modes: " in capsys.readouterr().err
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["optimize"],
        ["simulate", "--frames", "1"],
        ["experiment", "--sweep", "point", "--seeds", "1"],
        ["report", "--figure", "fig9", "--seeds", "1"],
    ], ids=lambda argv: argv[0])
    def test_model_commands_reject_invalid_scenario(self, tmp_path, capsys, argv):
        # a zero backoff window fails validation; every command that runs the
        # model exits 2 with the report before drawing channels or writing output
        s = small_scenario()
        s = dataclasses.replace(s, dcf=dataclasses.replace(s.dcf, w_min=0, w_max=0))
        path = str(tmp_path / "zero_window.json")
        save_scenario(s, path)
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--scenario", path, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "w_min" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(path)]

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

    def test_simulate_records_events_only_for_events_flag(self, tmp_path, capsys, monkeypatch):
        passed = []
        run_cell = cli.exp.run_cell

        def spy(*args, **kwargs):
            passed.append(kwargs.get("events"))
            return run_cell(*args, **kwargs)

        monkeypatch.setattr(cli.exp, "run_cell", spy)
        _, path = save_small(tmp_path, total_users=8)
        assert cli.main(["simulate", "--scenario", path, "--frames", "2"]) == cli.EXIT_OK
        assert passed == [None, None]
        passed.clear()
        events = str(tmp_path / "events.csv")
        argv = ["simulate", "--scenario", path, "--frames", "2", "--events", events]
        assert cli.main(argv) == cli.EXIT_OK
        assert len(passed) == 2 and all(isinstance(e, list) and e for e in passed)
        assert len(rio.read_csv(events)) == sum(len(e) for e in passed)

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
