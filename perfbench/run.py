"""The ris-mac benchmark.

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py      # all three workloads, crowd-1000 included

Run from the root of a source checkout; the package is imported from
``src`` and nothing is installed.  Every pass of a workload runs in a fresh
interpreter (worker.py), single process, with RIS_MAC_THREADS=1, so
module-level caches start cold as they do for each CLI call.  Passes repeat
up to the count that lands closest to ``--seconds``, and each metric is the
median over them.  End-to-end times are scaled to a reference host speed by
the probe in hostspeed.py, timed between passes; the raw times are printed
too, as ``raw.<name>``.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` traced and untraced
passes alternate, and it carries the per-layer metrics, including the
tracing overhead (median over adjacent untraced/traced pairs of passes of
the traced wall time minus the untraced one).  Every metric is also printed
above that line as ``name value unit``, with the error rate (failed cells
over attempted cells).  A traced run also prints metrics that BENCHMARK.json
leaves out, such as the scheme2 run_frame figures, which read zero on a
workload without scheme2.

The outputs of every pass are checked (workloads.check_rows), and in a
traced run every count must repeat exactly across the traced passes.  A
failed check, a failed pass or a traced pass whose counts differ from the
first one counts its cells in ``failed`` and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed in this many extra fresh interpreters per untraced run, on
# top of the one in every pass, and reported as the median of all of them.
SETUP_PROBES = 3
# A run must end within 180 s; no child may outlive this.
RUN_DEADLINE_S = 170.0

UNITS = (
    (".calls", "count"),
    ("_per_s", "1/s"),
    ("_ratio", "ratio"),
    (".bytes", "B"),
    ("_s", "s"),
    ("_mb", "MB"),
)


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def is_exact(name: str) -> bool:
    """Counts and ratios of counts repeat exactly; timings and rates do not."""
    return unit_of(name) not in ("s", "1/s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["RIS_MAC_THREADS"] = "1"
    # one BLAS thread too: the host has two cores and other tenants
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: dict, timeout_s: float, out=None, spans=None):
    """Run worker.py once; returns its JSON result, or None on failure."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spec", json.dumps(spec)]
    if out:
        cmd += ["--out", out]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout_s, 1.0),
        )
    except subprocess.TimeoutExpired:
        print("worker timed out after %.0f s" % timeout_s, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]), file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("worker printed no result:\n%s" % proc.stdout[-2000:], file=sys.stderr)
        return None


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    started = time.perf_counter()
    spec = workloads.job_spec(name, seed)
    reference = workloads.load_reference()[workloads.reference_key(name, seed)]
    cells_per_pass = len(reference) * len(spec["seeds"])
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-s%d" % (name, seed))

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    # host speed probes, one before every child and one after the last
    probes = [hostspeed.probe()]

    def child(out=None, spans=None):
        """Run a pass; its ``scale`` turns its times into reference seconds."""
        got = run_child(spec, remaining(), out=out, spans=spans)
        probes.append(hostspeed.probe())
        if got is not None:
            got["scale"] = hostspeed.REFERENCE_S / statistics.mean(probes[-2:])
        return got

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            got = child()
            if got is not None:
                setups.append(got)

    plain, traced = [], []
    pairs = {}  # pair number -> {"plain": wall_s, "traced": wall_s}
    attempted = failed = 0
    measure_start = time.perf_counter()
    i = 0
    while True:
        use_trace = trace and i % 2 == 1
        out = "%s-p%d.csv" % (stem, i)
        spans = "%s-p%d.spans.jsonl" % (stem, i) if use_trace else None
        if os.path.exists(out):
            os.remove(out)
        got = child(out=out, spans=spans)
        attempted += cells_per_pass
        if got is None:
            failed += cells_per_pass
        else:
            bad, problems = workloads.failed_cells(workloads.read_rows(out), spec, reference)
            failed += bad
            for msg in problems:
                print("check failed: %s" % msg, file=sys.stderr)
            (traced if use_trace else plain).append(got)
            pairs.setdefault(i // 2, {})["traced" if use_trace else "plain"] = got["wall_s"]
        i += 1
        elapsed = time.perf_counter() - measure_start
        per_pass = elapsed / i
        # stop at the pass count that lands closest to the measuring time
        done = elapsed + per_pass / 2 >= seconds and (not trace or i >= 2)
        if done or remaining() < per_pass + 5.0:
            break

    if not plain or (trace and not traced):
        raise RuntimeError("no pass of %s completed" % name)
    if trace:
        metrics, differing = _layer_metrics(traced)
        failed += differing * cells_per_pass
        # adjacent passes see the same host speed, so pair them; host drift
        # between pairs would swamp a difference of medians
        diffs = [p["traced"] - p["plain"] for p in pairs.values() if len(p) == 2]
        if not diffs:
            raise RuntimeError("no traced pass of %s has an untraced neighbour" % name)
        metrics["trace.overhead_s"] = statistics.median(diffs)
        with open(stem + "-layers.json", "w", encoding="utf-8") as f:
            json.dump(metrics, f, indent=1, sort_keys=True)
    else:
        metrics = {"peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
        for prefix, scaled in (("", True), ("raw.", False)):
            metrics.update(_times(setups + plain, plain, scaled, prefix))
        metrics["host.probe_s"] = statistics.median(probes)
        print("# %s: %d passes, %d cells timed, %d set-up samples, %d host probes"
              % (name, len(plain), len(plain[0]["cell_s"]), len(setups) + len(plain),
                 len(probes)))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "all_metrics": metrics,
    }


def _times(children: list, passes: list, scaled: bool, prefix: str) -> dict:
    """Medians of the timings, in reference seconds if ``scaled``."""
    def k(p):
        return p["scale"] if scaled else 1.0

    # a cell's time is its median over the passes, which all run the
    # same cells in the same order
    cells = [statistics.median(c) for c in zip(*([t * k(p) for t in p["cell_s"]] for p in passes))]
    return {
        prefix + "setup_s": statistics.median(p["setup_s"] * k(p) for p in children),
        prefix + "wall_s": statistics.median(p["wall_s"] * k(p) for p in passes),
        prefix + "cell_p50_s": statistics.median(cells),
        prefix + "cell_p90_s": p90(cells),
    }


def _layer_metrics(passes: list):
    """Median over traced passes, and how many passes break exact counts.

    Counts must repeat exactly; a pass whose counts differ from the first
    traced pass is counted as failed by the caller.
    """
    first = passes[0]["layers"]
    differing = 0
    for i, p in enumerate(passes[1:], start=1):
        diff = sorted(k for k in first if is_exact(k) and p["layers"][k] != first[k])
        if diff:
            differing += 1
            print("check failed: traced pass %d differs from the first in %s"
                  % (i, ", ".join(diff)), file=sys.stderr)
    out = {key: statistics.median(p["layers"][key] for p in passes) for key in first}
    return out, differing


def report(name: str, result: dict, wanted: list) -> dict:
    """Print every metric as ``name value unit``; return the JSON result."""
    metrics = result["all_metrics"]
    error_rate = result["failed"] / result["attempted"]
    print("# %s: %d cells attempted, %d failed, error_rate %.4f"
          % (name, result["attempted"], result["failed"], error_rate))
    for key in sorted(metrics):
        print("%-48s %18.6f %s" % (key, metrics[key], unit_of(key)))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   help="run one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=0, help="selects the cell seeds; 0 gives 1..k")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ris_mac", "__init__.py")):
        print("no ris_mac package under %s: run from a source checkout" % SRC, file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)

    results = {}
    for name in names:
        results[name] = report(name, run_workload(name, args.seed, seconds, bool(args.trace)), wanted)
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
