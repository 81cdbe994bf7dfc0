"""One benchmark pass in a fresh interpreter.

    python perfbench/worker.py --spec '<json>' [--out rows.csv] [--spans spans.jsonl]

The parent (run.py) starts this with PYTHONPATH pointing at the checkout's
``src`` and RIS_MAC_THREADS=1.  It times set-up (import, default_scenario,
validate_scenario), then runs the sweep as ``ris-mac experiment`` does:
validate the template, run_experiment, write_table.  The last line of
standard output is one JSON object with the timings; with ``--spans`` it
also carries every per-layer metric and the spans go to that file.
Without ``--out`` only set-up is timed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spec", required=True, help="job spec as JSON (workloads.job_spec)")
    p.add_argument("--out", help="CSV path for the result rows; omit to time set-up only")
    p.add_argument("--spans", help="trace the pass and write its spans here")
    args = p.parse_args(argv)
    spec = json.loads(args.spec)

    if args.spans:
        from tracer import Tracer

        probe = Tracer()
    else:
        from tracer import CellTimer

        probe = CellTimer()

    t0 = time.perf_counter()
    import ris_mac  # noqa: F401  (set-up includes the package import)
    from ris_mac import experiments, io, scenario

    probe.install()
    report = scenario.validate_scenario(scenario.default_scenario())
    setup_s = time.perf_counter() - t0
    if not report.ok:
        print("reference scenario failed validation:\n%s" % report, file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}

    if args.out:
        t1 = time.perf_counter()
        tpl = spec["template"]
        template = scenario.default_scenario(total_users=tpl["total_users"], ratio=tuple(tpl["ratio"]))
        report = scenario.validate_scenario(template)
        if not report.ok:
            print("workload scenario failed validation:\n%s" % report, file=sys.stderr)
            return 2
        sweep = experiments.parse_sweep(spec["sweep"])
        rows = experiments.run_experiment(template, sweep, spec["seeds"], modes=tuple(spec["modes"]))
        io.write_table(rows, experiments.RESULT_COLUMNS, args.out, fmt="csv")
        result["wall_s"] = time.perf_counter() - t1
        result["cell_s"] = probe.cell_seconds()
        if args.spans:
            result["layers"] = probe.layer_metrics()
            probe.write_spans(args.spans)

    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
