"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 scenario validation failure,
3 infeasible optimization, 4 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import channel as chan
from . import dcf as dcfmod
from . import experiments as exp
from . import io as rio
from . import simulator as sim
from .optimizer import InfeasibleError, joint_optimize
from .scenario import (
    DcfParams,
    ScenarioInvalid,
    default_scenario,
    load_scenario,
    require_valid,
    validate_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    p = _Parser(prog="ris-mac", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_scenario_args(sp):
        sp.add_argument("--scenario", help="scenario file (JSON); defaults to the reference network")
        sp.add_argument("--seed", type=at_least(0), default=None,
                        help="override the embedded seed")

    sp = sub.add_parser("validate", help="check a scenario file's invariants")
    add_scenario_args(sp)

    sp = sub.add_parser("optimize", help="solve frame timing, power, and assignment")
    add_scenario_args(sp)
    sp.add_argument("--replay-channels", help="reuse a dumped channel realization")
    sp.add_argument("--dump-channels", help="persist the drawn realization for replay")
    sp.add_argument("--out", help="write the result as JSON")

    sp = sub.add_parser("dcf-table", help="print the contention cascade as CSV")
    sp.add_argument("--contenders", type=at_least(0), required=True)
    sp.add_argument("--channels", type=at_least(1), required=True)
    sp.add_argument("--w-min", type=at_least(1), default=15)
    sp.add_argument("--max-stage", type=at_least(0), default=6)

    sp = sub.add_parser("simulate", help="run Monte-Carlo frames for one mode")
    add_scenario_args(sp)
    sp.add_argument("--mode", choices=sim.MODES, default="proposed")
    sp.add_argument("--frames", type=at_least(1), default=1)
    sp.add_argument(
        "--csi-best-channel", action="store_true",
        help="contenders pick their best-rate subchannel instead of a uniform idle one",
    )
    sp.add_argument("--out", help="write per-frame rows as CSV")
    sp.add_argument("--events", help="write every frame's event trace as CSV")

    sp = sub.add_parser("experiment", help="seeded sweep over a scenario knob")
    add_scenario_args(sp)
    sp.add_argument("--sweep", required=True, help="e.g. users=50:200:25")
    sp.add_argument("--modes", type=parse_modes, default="proposed", help="comma list of modes")
    sp.add_argument("--seeds", type=parse_seeds, default="1", help="comma list or count:base")
    sp.add_argument("--out", default="results.csv")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("report", help="emit the tidy table behind one reference figure")
    add_scenario_args(sp)
    sp.add_argument("--figure", required=True, choices=sorted(exp.FIGURE_PRESETS))
    sp.add_argument("--seeds", type=parse_seeds, default="1,2,3")
    sp.add_argument("--out", default=None)
    return p


def parse_seeds(spec: str) -> list:
    """``--seeds``: a comma list, or count:base for count seeds from base.
    argparse reports its ValueError, on no seed, a negative seed or a
    repeated one too, as a usage error."""
    if ":" in spec:
        count, base = spec.split(":")
        seeds = [int(base) + i for i in range(int(count))]
    else:
        seeds = [int(x) for x in spec.split(",") if x.strip()]
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError("need distinct seeds >= 0 in %r" % spec)
    return seeds


def parse_modes(spec: str) -> tuple:
    """``--modes``: a comma list of MAC modes; argparse reports an unknown
    mode, a repeated one or no mode as a usage error, before any channel
    draw."""
    modes = tuple(m.strip() for m in spec.split(",") if m.strip())
    unknown = [m for m in modes if m not in sim.MODES]
    if unknown or not modes or len(set(modes)) < len(modes):
        raise argparse.ArgumentTypeError(
            "need distinct modes from %s, got %r" % (", ".join(sim.MODES), spec)
        )
    return modes


def at_least(low: int):
    """An argparse type for an integer flag that must be >= ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d (got %d)" % (low, value))
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _read(args):
    if args.scenario:
        return load_scenario(args.scenario, seed_override=args.seed)
    return default_scenario(seed=args.seed if args.seed is not None else 1)


def _load(args):
    """The scenario of a model-running command, validated before any channel draw."""
    return require_valid(_read(args))


def cmd_validate(args) -> int:
    report = validate_scenario(_read(args))
    print(report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_optimize(args) -> int:
    s = _load(args)
    if args.replay_channels:
        channels = chan.replay_channels(args.replay_channels)
        want = (s.population.num_total, s.ris.num_ris, s.ris.elements_per_ris)
        if channels.g.shape != want or channels.h.shape != want or channels.r.shape != want[:1]:
            print(
                "error: %s holds (users, surfaces, elements) = %s, the scenario has %s"
                % (args.replay_channels, channels.g.shape, want),
                file=sys.stderr,
            )
            return EXIT_USAGE
    else:
        channels = chan.draw_channels(s, s.seed)
    if args.dump_channels:
        chan.dump_channels(channels, args.dump_channels)
    result = joint_optimize(s, channels)
    payload = {
        "frame": dataclasses.asdict(result.frame),
        "throughput_bps": {
            "scheduled": result.throughput_scheduled_bps,
            "contended": result.throughput_contended_bps,
            "overall": result.throughput_overall_bps,
        },
        "contention": {
            "rounds": result.cascade.n_r,
            "handshake_s": result.cascade.t_r_s,
            "required_contended_s": result.cascade.required_beta_t2_s,
            "starvation_guard_fired": result.cascade.starvation_guard_fired,
            "guard_served": result.cascade.guard_served,
        },
        "complexity": {
            "mac_ops": result.complexity.mac_ops,
            "centralized_ops": result.complexity.centralized_ops,
            "distributed_ops": result.complexity.distributed_ops,
            "delta_ops": result.complexity.delta_ops,
            "improvement_ratio": result.complexity.improvement_ratio,
        },
        "assignment": {
            "ris_of_user": result.allocation.ris_of_user.tolist(),
            "slot_of_user": result.allocation.slot_of_user.tolist(),
            "rho_sq_w": result.allocation.rho_sq_w.tolist(),
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_dcf_table(args) -> int:
    dcf = DcfParams(w_min=args.w_min, max_backoff_stage=args.max_stage)
    cascade = dcfmod.contention_cascade(args.contenders, args.channels, dcf)
    print("round,contenders,tau,collision_prob,channel_success_prob,cumulative_served")
    for rd in cascade.rounds:
        values = (rd.round_index, rd.contenders, rd.tau, rd.collision_prob,
                  rd.success_prob_channel, rd.cumulative_served)
        print(",".join(rio.format_value(v) for v in values))
    return EXIT_OK


def cmd_simulate(args) -> int:
    s = _load(args)
    from .scenario import advance_frame

    rows = []
    event_rows = []
    scen = s
    if args.csi_best_channel and not scen.csi_best_channel:
        scen = dataclasses.replace(scen, csi_best_channel=True)
    for i in range(args.frames):
        seed = s.seed + i
        events = [] if args.events else None  # frames record events only for --events
        rows.append(exp.run_cell(scen, args.mode, seed, events=events))
        rows[-1]["frame"] = i
        if events is not None:
            event_rows.extend(dict(e._asdict(), frame=i) for e in events)
        if i + 1 < args.frames:
            # this frame's arrivals join the existing set for the next frame
            pop = advance_frame(scen.population, scen.area_side_m, seed + 7919)
            scen = dataclasses.replace(scen, population=pop)
    cols = ("frame", "mode", "seed", "s_s_bps", "s_c_bps", "s_o_bps",
            "served_static", "served_mobile", "served_new", "collisions",
            "n_r_measured", "n_r_analytic", "beta_alpha")
    if args.events:
        event_cols = ["frame", *sim.TraceEvent._fields]
        rio.write_table(event_rows, event_cols, args.events, fmt="csv")
    if args.out:
        rio.write_table(rows, cols, args.out, fmt="csv")
        rio.write_manifest(
            args.out + ".manifest.json", args.scenario,
            [s.seed + i for i in range(args.frames)], None,
            [args.out] + ([args.events] if args.events else []),
        )
        print("wrote %s (%d frames)" % (args.out, len(rows)))
    else:
        print(",".join(cols))
        for row in rows:
            print(",".join(rio.format_value(row[c]) for c in cols))
    return EXIT_OK


def cmd_experiment(args) -> int:
    s = _load(args)
    sweep = exp.parse_sweep(args.sweep)
    exp.require_valid_points(s, sweep)
    rows = exp.run_experiment(s, sweep, args.seeds, modes=args.modes)
    rio.write_table(rows, exp.RESULT_COLUMNS, args.out, fmt=args.format)
    manifest_path = args.out + ".manifest.json"
    rio.write_manifest(manifest_path, args.scenario, args.seeds, sweep, [args.out])
    print("wrote %s and %s" % (args.out, manifest_path))
    return EXIT_OK


def cmd_report(args) -> int:
    s = _load(args)
    rows = exp.run_figure(args.figure, s, args.seeds)
    out = args.out or ("%s.csv" % args.figure)
    cols = list(exp.RESULT_COLUMNS) + (["ratio"] if any("ratio" in r for r in rows) else [])
    rio.write_table(rows, cols, out, fmt="csv")
    manifest_path = out + ".manifest.json"
    rio.write_manifest(manifest_path, args.scenario, args.seeds, args.figure, [out])
    print("wrote %s and %s" % (out, manifest_path))
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "optimize": cmd_optimize,
    "dcf-table": cmd_dcf_table,
    "simulate": cmd_simulate,
    "experiment": cmd_experiment,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # a usage error (1), or 0 after --help
        return e.code
    try:
        return COMMANDS[args.command](args)
    except ScenarioInvalid as e:
        print(e.args[0], file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as e:
        print("infeasible: %s" % e, file=sys.stderr)
        return EXIT_INFEASIBLE
    except (exp.SweepSpecError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE if isinstance(e, exp.SweepSpecError) else EXIT_RUNTIME
    except Exception as e:  # noqa: BLE001
        print("runtime error: %s" % e, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
