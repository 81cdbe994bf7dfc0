"""CLI surface and result persistence: exit codes, sweep parsing, stable
serialization, and byte-identical reruns."""

import dataclasses
import importlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from ris_mac import channel as chan
from ris_mac import cli
from ris_mac import io as rio
from ris_mac import scenario as scenario_mod
from ris_mac.experiments import SweepSpecError, parse_sweep
from ris_mac.scenario import default_scenario, save_scenario

from conftest import small_scenario
import oracles


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

    @pytest.mark.parametrize("spec", [
        "users=a:b:c", "users=", "users=50,x", "users=nan:100:50", "ratio=5:x:1",
        "users=-50:50:50", "ris=-1,2", "elements=-128,128",
        "users=50.7:100:50", "ris=1.5,2", "elements=32:128:31.5",
    ])
    def test_sweep_bad_entries(self, spec):
        # a non-numeric or non-finite entry, or a negative or fractional count
        with pytest.raises(SweepSpecError):
            parse_sweep(spec)

    def test_whole_float_counts_are_counts(self):
        sweep = parse_sweep("users=50.0:100:50")
        assert sweep.values == (50, 100)
        assert all(type(v) is int for v in sweep.values)

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
        s = dataclasses.replace(s, dcf=dataclasses.replace(s.dcf, w_min=0))
        path = str(tmp_path / "zero_window.json")
        save_scenario(s, path)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_VALIDATION
        assert cli.main(["simulate", "--scenario", path, "--frames", "1"]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [["simulate", "--frames", "1"], ["optimize"]],
                             ids=lambda argv: argv[0])
    def test_window_span_past_the_draw_cap_exits_2_before_drawing(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # w_max * C = 2^19 * 4 > 2^20: a contention draw's bias bound would
        # pass 2^-12, so the command stops before any channel draw
        s = small_scenario()
        s = dataclasses.replace(
            s, radio=dataclasses.replace(s.radio, num_subchannels=4),
            dcf=dataclasses.replace(s.dcf, w_min=2**13),
        )
        path = str(tmp_path / "wide_window.json")
        save_scenario(s, path)

        def no_draw(*args):
            raise AssertionError("channels drawn for an invalid scenario")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        assert cli.main(argv + ["--scenario", path]) == cli.EXIT_VALIDATION
        assert "w_max * num_subchannels <= 2^20 violated" in capsys.readouterr().err

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
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    @pytest.mark.parametrize("dumped, replayed", [(20, 8), (8, 20)])
    def test_replay_on_another_network_is_usage_error(self, tmp_path, capsys, dumped, replayed):
        s, path = save_small(tmp_path, total_users=dumped)
        dump = str(tmp_path / "channels.json")
        assert cli.main(["optimize", "--scenario", path, "--dump-channels", dump]) == 0
        capsys.readouterr()
        other = str(tmp_path / "other.json")
        save_scenario(small_scenario(total_users=replayed), other)
        out = str(tmp_path / "result.json")
        argv = ["optimize", "--scenario", other, "--replay-channels", dump, "--out", out]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        n_el = s.ris.elements_per_ris
        assert "(%d, 2, %d)" % (dumped, n_el) in err
        assert "(%d, 2, %d)" % (replayed, n_el) in err
        assert not Path(out).exists()

    @pytest.mark.parametrize("argv", [
        ["experiment", "--sweep", "point", "--seeds", "x"],
        ["experiment", "--sweep", "point", "--seeds", ""],
        ["experiment", "--sweep", "point", "--seeds", "3:"],
        ["report", "--figure", "fig9", "--seeds", "1,x"],
        ["simulate", "--frames", "0"],
        ["simulate", "--frames", "-1"],
        ["simulate", "--frames", "two"],
        ["experiment", "--sweep", "point", "--seeds=-1"],
        ["experiment", "--sweep", "point", "--seeds", "2:-1"],
        ["experiment", "--sweep", "point", "--seeds", "1,1"],
        ["report", "--figure", "fig9", "--seeds", "3,1,3"],
        ["optimize", "--seed", "-1"],
        ["simulate", "--seed", "-1"],
    ], ids=["seeds-x", "seeds-empty", "seeds-open-range", "report-seeds-x", "frames-0",
            "frames-negative", "frames-word", "seeds-negative", "seeds-negative-base",
            "seeds-repeated", "report-seeds-repeated", "seed-negative", "simulate-seed-negative"])
    def test_bad_run_length_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_draw(*args, **kwargs):
            raise AssertionError("a channel draw ran before the usage error")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        _, path = save_small(tmp_path)
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--scenario", path, "--out", str(out)]) == cli.EXIT_USAGE
        assert "error: argument --" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "modes", ["proposed,scheme3", ",", "", "proposed,proposed", "scheme1,proposed, scheme1"]
    )
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

    @pytest.mark.parametrize("sweep", [
        "users=a:b:c", "users=", "users=-50:50:50", "users=50.7:100:50", "ris=1.5,2",
    ])
    def test_bad_sweep_entry_is_usage_error_before_any_draw(
        self, tmp_path, capsys, monkeypatch, sweep
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("a channel draw ran before the usage error")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        _, path = save_small(tmp_path)
        out = tmp_path / "out.csv"
        argv = ["experiment", "--sweep", sweep, "--seeds", "1", "--scenario", path]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sweep, violation", [
        ("elements=0:2:1", "elements_per_ris >= 1 violated"),
        ("ris=0:2:1", "num_ris >= 1 violated"),
        ("users=0:50:50", "at least one user violated"),
    ])
    def test_every_sweep_value_is_validated_before_any_draw(
        self, tmp_path, capsys, monkeypatch, sweep, violation
    ):
        # the template is valid, but the sweep's first value is not: the
        # command exits 2 with that value's report, before any channel draw
        def no_draw(*args, **kwargs):
            raise AssertionError("channels drawn for an invalid sweep value")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        _, path = save_small(tmp_path)
        out = tmp_path / "out.csv"
        argv = ["experiment", "--sweep", sweep, "--seeds", "1", "--scenario", path]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "sweep value %s=0:" % sweep.partition("=")[0] in err and violation in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["experiment", "--sweep", "ris=1:2:1", "--seeds", "1"],
        ["report", "--figure", "fig7", "--seeds", "1"],
    ], ids=lambda argv: argv[0])
    def test_every_figure_point_is_validated_before_any_draw(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # users in a 5 cm square under surfaces at 10 m: the template is
        # valid, but a sweep's own surfaces sit 5 cm up, under the 0.1 m
        # link floor, so the command exits 2 before any channel draw
        d = small_scenario().to_dict()
        d["area_side_m"] = 0.05
        d["population"]["positions"] = []
        d["ris"]["positions"] = [[0.025, 0.05, 10.0], [0.05, 0.025, 10.0]]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(d))

        def no_draw(*args, **kwargs):
            raise AssertionError("channels drawn for an invalid sweep value")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        out = tmp_path / "out.csv"
        assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_OK
        assert cli.main(argv + ["--scenario", str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "sweep value ris=1:\ndegenerate geometry: user-RIS distance" in err
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("where", ["user", "surface", "bs", "user-number", "surface-number"])
    def test_positions_must_be_three_finite_coordinates(self, tmp_path, capsys, monkeypatch, where):
        # a 2-coordinate position, or one that is a bare number, fails
        # validate (exit 2), and a model command stops on it before any
        # channel draw
        s = small_scenario()
        if where.startswith("user"):
            positions = list(s.population.positions)
            positions[3] = 5.0 if where == "user-number" else positions[3][:2]
            s = dataclasses.replace(
                s, population=dataclasses.replace(s.population, positions=tuple(positions))
            )
        elif where.startswith("surface"):
            positions = (
                (1.0, 2.0) if where == "surface-number"
                else (s.ris.positions[0], s.ris.positions[1][:2])
            )
            s = dataclasses.replace(s, ris=dataclasses.replace(s.ris, positions=positions))
        else:
            s = dataclasses.replace(s, bs_position=(0.0, 0.0))
        path = str(tmp_path / "flat.json")
        save_scenario(s, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("channels drawn for an invalid scenario")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_VALIDATION
        assert "not three finite coordinates" in capsys.readouterr().out
        assert cli.main(["optimize", "--scenario", path]) == cli.EXIT_VALIDATION
        assert "not three finite coordinates" in capsys.readouterr().err

    def test_validate_negative_seed_is_usage_error(self, tmp_path, capsys):
        _, path = save_small(tmp_path)
        assert cli.main(["validate", "--scenario", path, "--seed", "-1"]) == cli.EXIT_USAGE
        assert cli.main(["validate", "--seed", "-1"]) == cli.EXIT_USAGE
        assert "error: argument --seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True], ids=["null", "negative", "float", "bool"])
    @pytest.mark.parametrize("positions", ["stored", "drawn"])
    def test_scenario_seed_must_be_a_non_negative_int(
        self, tmp_path, capsys, monkeypatch, seed, positions
    ):
        # a file's seed picks the realization (and, when the file stores no
        # positions, the positions): a seed that is not an integer >= 0
        # fails validate (exit 2), and a model command stops on it before
        # any draw
        d = small_scenario().to_dict()
        d["seed"] = seed
        if positions == "drawn":
            d["population"]["positions"] = []
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(d))

        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran for a scenario with an invalid seed")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        monkeypatch.setattr(scenario_mod, "build_population", no_draw)
        want = "seed >= 0 violated (-1)" if seed == -1 else "seed must be an integer (got %r)" % (seed,)
        assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_VALIDATION
        assert want in capsys.readouterr().out
        assert cli.main(["optimize", "--scenario", str(path)]) == cli.EXIT_VALIDATION
        assert want in capsys.readouterr().err

    def test_scenario_with_no_users_fails_validation(self, tmp_path, capsys):
        _, path = save_small(tmp_path, total_users=0)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_VALIDATION
        assert "at least one user violated" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["validate"], ["simulate", "--frames", "1"]],
                             ids=lambda argv: argv[0])
    def test_negative_class_count_fails_validation(self, tmp_path, capsys, monkeypatch, argv):
        # 2 existing users and -1 new arrivals make one user with one
        # position, so every length check passes
        d = small_scenario(total_users=3).to_dict()
        d["population"].update(
            num_existing=2, num_new_mobile=-1, mobility_flags=[1, 0],
            positions=[[10.0, 10.0, 0.0]],
        )
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(d))

        def no_draw(*args):
            raise AssertionError("channels drawn for an invalid scenario")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        assert cli.main(argv + ["--scenario", str(path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "num_new_mobile >= 0 violated (-1)" in captured.out + captured.err

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
        s = dataclasses.replace(s, dcf=dataclasses.replace(s.dcf, w_min=0))
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

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_optimize_plans_a_budget_above_the_absolute_audit_tolerance(
        self, tmp_path, capsys, seed
    ):
        # at 80 dBm (100 kW) the water-filled powers of these seeds sum an
        # ulp or two of P over it, more than 1e-12 W
        s = default_scenario()
        s = dataclasses.replace(
            s, radio=dataclasses.replace(s.radio, tx_power_budget_static_dbm=80.0)
        )
        path = str(tmp_path / "ref80.json")
        save_scenario(s, path)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_OK
        code = cli.main(["optimize", "--scenario", path, "--seed", seed])
        assert code == cli.EXIT_OK

    def test_dcf_table_runs_the_cascade_to_the_end(self, capsys):
        # 600 contenders on one channel take 11,099 rounds, none forced
        code = cli.main(["dcf-table", "--contenders", "600", "--channels", "1"])
        assert code == cli.EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert (last[0], last[-1]) == ("11099", "600")

    def test_optimize_plans_a_long_cascade(self, tmp_path, capsys):
        # 1:5:1 of 700 users puts 600 contenders on the one surface's subchannel
        path = str(tmp_path / "massive.json")
        save_scenario(default_scenario(700, ratio=(1, 5, 1), num_ris=1), path)
        out = str(tmp_path / "plan.json")
        assert cli.main(["optimize", "--scenario", path, "--out", out]) == cli.EXIT_OK
        contention = json.loads(Path(out).read_text())["contention"]
        assert contention["rounds"] == 11099
        assert contention["guard_served"] == 0
        assert contention["starvation_guard_fired"] is False

    def test_simulate_runs(self, tmp_path, capsys):
        _, path = save_small(tmp_path, total_users=8)
        out = str(tmp_path / "frames.csv")
        code = cli.main([
            "simulate", "--scenario", path, "--mode", "proposed",
            "--frames", "2", "--out", out,
        ])
        assert code == cli.EXIT_OK
        rows = oracles.read_csv(out)
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
        assert len(oracles.read_csv(events)) == sum(len(e) for e in passed)

    def test_experiment_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RIS_MAC_TIMESTAMP", "pinned")
        _, path = save_small(tmp_path, total_users=8)
        out = str(tmp_path / "results.csv")
        code = cli.main([
            "experiment", "--scenario", path, "--sweep", "users=6:10:4",
            "--modes", "proposed,scheme2", "--seeds", "1,2", "--out", out,
        ])
        assert code == cli.EXIT_OK
        rows = oracles.read_csv(out)
        assert {r["mode"] for r in rows} == {"proposed", "scheme2"}
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["outputs"][out] == rio.file_sha256(out)
        assert manifest["timestamp"] == "pinned"


def set_key(section, key, value):
    """An edit of a scenario file's dict: ``key`` of ``section`` (None for
    the top level) set to ``value``."""
    return lambda d: (d if section is None else d[section]).__setitem__(key, value)


def drop_key(section, key):
    return lambda d: d[section].pop(key)


def edits(*fns):
    return lambda d: [fn(d) for fn in fns]


def set_first(section, key, value):
    """An edit that sets the first entry of a list ``key`` of ``section``."""
    return lambda d: d[section].__setitem__(key, [value, *d[section][key][1:]])


def surface_above_user(height):
    """An edit that moves surface 0 to ``height`` m straight above user 0."""
    def edit(d):
        x, y, z = d["population"]["positions"][0]
        d["ris"]["positions"] = [[x, y, z + height], *d["ris"]["positions"][1:]]
    return edit


# one edit of a saved 20-user reference file each, and the key path that
# the one line of its report names
FILE_PROBES = [
    pytest.param(set_key(None, "csi_best_channel", "no"),
                 "csi_best_channel must be true or false", id="csi-string"),
    pytest.param(set_key(None, "csi_best_channel", 1),
                 "csi_best_channel must be true or false", id="csi-int"),
    pytest.param(set_key(None, "area_side", 10), "area_side: unknown key", id="top-level-typo"),
    pytest.param(set_key("population", "classes", [0]),
                 "population.classes: unknown key", id="population-extra-key"),
    pytest.param(set_key("dcf", "payload_bytes", -5),
                 "dcf.payload_bytes: retired key", id="payload-bytes"),
    pytest.param(set_key("dcf", "w_max", 960), "dcf.w_max: retired key", id="w-max"),
    pytest.param(set_key("radio", "carrier_hz", float("inf")),
                 "radio.carrier_hz must be a finite number", id="carrier-infinity"),
    pytest.param(set_key("ris", "elements_per_ris", 12.5),
                 "ris.elements_per_ris must be an integer", id="elements-float"),
    pytest.param(set_key("compute", "l1", 2.0), "compute.l1 must be an integer", id="l1-float"),
    pytest.param(set_key("radio", "num_subchannels", 2.0),
                 "radio.num_subchannels must be an integer", id="subchannels-float"),
    pytest.param(set_key("dcf", "w_min", "15"), "dcf.w_min must be an integer", id="w-min-string"),
    pytest.param(set_key("radio", "noise_power_dBm", -94.0),
                 "radio.noise_power_dBm: unknown key", id="radio-unknown-key"),
    pytest.param(drop_key("population", "num_new_mobile"),
                 "population.num_new_mobile: required key missing", id="population-missing-key"),
    pytest.param(set_key(None, "dcf", 5), "dcf: not an object", id="dcf-not-an-object"),
    pytest.param(set_key("radio", "carrier_hz", 0.0),
                 "radio.carrier_hz > 0 violated (0.0)", id="carrier-zero"),
    pytest.param(set_key("dcf", "control_rate_bps", 0.0),
                 "dcf.control_rate_bps > 0 violated (0.0)", id="control-rate-zero"),
    pytest.param(set_key("dcf", "rts_bytes", -500),
                 "dcf.rts_bytes >= 0 violated (-500)", id="rts-negative"),
    pytest.param(set_key("dcf", "cts_bytes", -1),
                 "dcf.cts_bytes >= 0 violated (-1)", id="cts-negative"),
    # with no positions stored, a load draws them only in a valid area
    pytest.param(edits(set_key(None, "area_side_m", -5.0),
                       set_key("population", "positions", [])),
                 "area_side_m > 0 violated (-5.0)", id="area-negative"),
    pytest.param(set_first("population", "mobility_flags", True),
                 "population.mobility_flags must be a list of integers", id="flag-bool"),
    pytest.param(set_first("population", "mobility_flags", 1.0),
                 "population.mobility_flags must be a list of integers", id="flag-float"),
    pytest.param(set_key("ris", "subchannel_of_ris", [False, True]),
                 "ris.subchannel_of_ris must be a list of integers", id="subchannels-bool"),
    pytest.param(surface_above_user(0.02),
                 "degenerate geometry: user-RIS distance 0.02 m below 0.1 m", id="short-link"),
]


class TestScenarioFile:
    """A scenario file holds the dataclass fields and nothing else, each of
    its field's type: any other file fails validate and every model command
    with exit 2 and one line naming the key, before any draw."""

    @pytest.mark.parametrize("edit, want", FILE_PROBES)
    @pytest.mark.parametrize("argv", [["validate"], ["optimize"]], ids=lambda argv: argv[0])
    def test_fault_exits_2_naming_its_key(self, tmp_path, capsys, monkeypatch, argv, edit, want):
        d = default_scenario(total_users=20).to_dict()
        edit(d)
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(d))

        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran for a faulty scenario file")

        monkeypatch.setattr(chan, "draw_channels", no_draw)
        monkeypatch.setattr(scenario_mod, "build_population", no_draw)
        assert cli.main(argv + ["--scenario", str(path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert len(lines) == 1 and lines[0].startswith(want)

    def test_every_fault_is_reported(self, tmp_path, capsys):
        d = default_scenario(total_users=20).to_dict()
        for edit, _ in [p.values for p in FILE_PROBES if p.id in (
            "top-level-typo", "payload-bytes", "w-max", "population-missing-key",
        )]:
            edit(d)
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(d))
        assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_VALIDATION
        assert sorted(capsys.readouterr().err.splitlines()) == [
            "area_side: unknown key",
            "dcf.payload_bytes: retired key: nothing reads it; "
            "dcf.payload_time_s is the payload airtime",
            "dcf.w_max: retired key: the last window is derived, w_min * 2^max_backoff_stage",
            "population.num_new_mobile: required key missing",
        ]

    @pytest.mark.parametrize("argv", [["validate"], ["optimize"]], ids=lambda argv: argv[0])
    def test_malformed_json_exits_2_naming_the_file(self, tmp_path, capsys, argv):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(argv + ["--scenario", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "%s: not a JSON scenario file (Expecting property name enclosed in double quotes:"
            " line 1 column 2 (char 1))" % path
        ]

    def test_type_faults_are_reported_alone(self, tmp_path, capsys):
        # a type fault skips the value checks, which would compare "15"
        d = default_scenario(total_users=20).to_dict()
        d["dcf"]["w_min"] = "15"
        d["radio"]["num_subchannels"] = 0
        d["seed"] = True
        path = tmp_path / "types.json"
        path.write_text(json.dumps(d))
        assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().out.splitlines() == [
            "dcf.w_min must be an integer (got '15')",
            "seed must be an integer (got True)",
        ]


class TestWriteResults:
    def test_manifest_records_numeric_stack(self, tmp_path):
        out = str(tmp_path / "rows.csv")
        rio.write_table([], ["a"], out)
        rio.write_manifest(out + ".manifest.json", None, [1], None, [out])
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()

    def test_empty_table_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        rio.write_table([], ("a", "b"), path)
        assert Path(path).read_text() == "a,b\n"

    def test_round_trip_values(self, tmp_path):
        path = str(tmp_path / "t.csv")
        rows = [{"a": 1.23456789012345e7, "b": "x"}, {"a": 0.5, "b": "y"}]
        rio.write_table(rows, ("a", "b"), path)
        back = oracles.read_csv(path)
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
