"""Workload definitions, seed mapping and output checks.

This module imports only the standard library: the parent process of the
benchmark never loads ris_mac or scipy, and loads numpy only for the host
speed probe (hostspeed.py).  Each child reports its own peak RSS, so the
parent's footprint does not show in it.

Each workload is a seeded sweep as the ``ris-mac experiment`` command runs
it.  The benchmark's ``--seed`` picks one of ``VARIANTS`` disjoint cell-seed
sets, so the same ``--seed`` always gives the same inputs and every variant
has reference rows stored in ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

VARIANTS = 10

# Columns that are a function of the channel draw and the plan alone.  They
# must stay byte-identical (12 significant digits, as the CSV writes them)
# when the contention RNG stream changes.
REFERENCE_COLUMNS = (
    "s_s_bps",
    "s_o_analytic_bps",
    "n_r_analytic",
    "beta_alpha",
    "served_static",
)
SERVED = ("served_static", "served_mobile", "served_new")


def reference_columns(mode: str) -> tuple:
    """REFERENCE_COLUMNS less those the contention RNG decides in ``mode``.

    In scheme2 static users contend too, so which of them win a grant
    before the rounds run out depends on the draws.
    """
    if mode == "scheme2":
        return tuple(c for c in REFERENCE_COLUMNS if c != "served_static")
    return REFERENCE_COLUMNS

# Why each workload exists: which layer it stresses and how.
WORKLOADS = {
    # The paper's headline figure on the reference network.  Every
    # (value, seed) is planned once per mode, so shared or cached planning
    # shows here; contention rounds hold at most 200 contenders, so
    # per-round overhead matters.
    "fig5-sweep": {
        "template": {"total_users": 200, "ratio": [5, 4, 1]},
        "sweep": "users=50:200:25",
        "modes": ["proposed", "scheme1", "scheme2"],
        "seeds_per_variant": 5,
    },
    # One wide cell: 1000 contenders per round.  Contention is almost all
    # of the time and the optimizer a few percent.  BENCHMARK.json leaves it
    # out: on a shared 2-core host its wall time spread 0.20-0.29 (quartile
    # distance over median, ten runs), wider than the largest bound a metric
    # may have.  ``run.py`` with no ``--workload`` still runs it.
    "crowd-1000": {
        "template": {"total_users": 1000, "ratio": [5, 4, 1]},
        "sweep": "point",
        "modes": ["proposed", "scheme2"],
        "seeds_per_variant": 1,
    },
    # Mostly static users on growing surfaces: channel drawing and the
    # optimizer dominate and the channel arrays grow to 800x2x512 complex.
    "static-heavy": {
        "template": {"total_users": 800, "ratio": [18, 1, 1]},
        "sweep": "elements=128:512:128",
        "modes": ["proposed", "scheme1"],
        "seeds_per_variant": 2,
    },
}


def variant_of(seed: int) -> int:
    return int(seed) % VARIANTS


def cell_seeds(workload: str, seed: int) -> list:
    """The cell seeds a benchmark ``--seed`` selects; variant 0 is 1..k."""
    k = WORKLOADS[workload]["seeds_per_variant"]
    base = variant_of(seed) * k
    return list(range(base + 1, base + k + 1))


def job_spec(workload: str, seed: int) -> dict:
    """Everything a worker needs to run one pass of a workload."""
    w = WORKLOADS[workload]
    return {
        "workload": workload,
        "template": w["template"],
        "sweep": w["sweep"],
        "modes": w["modes"],
        "seeds": cell_seeds(workload, seed),
    }


def read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def reference_key(workload: str, seed: int) -> str:
    return "%s/%d" % (workload, variant_of(seed))


def check_rows(rows: list, spec: dict, reference_rows) -> list:
    """Return (row index, message) per failed check; index -1 for the table.

    ``reference_rows`` holds, per expected row, the axis value, the mode
    and the REFERENCE_COLUMNS as the CSV formats them.
    """
    if len(rows) != len(reference_rows):
        return [(-1, "expected %d rows, got %d" % (len(reference_rows), len(rows)))]
    problems = []
    n_seeds = len(spec["seeds"])
    for i, (row, ref) in enumerate(zip(rows, reference_rows)):
        def bad(msg, *a):
            problems.append((i, "row %d (%s, %s): %s" % (i, ref["value"], ref["mode"], msg % a)))

        if row.get("value") != ref["value"] or row.get("mode") != ref["mode"]:
            bad("got value %r mode %r", row.get("value"), row.get("mode"))
            continue
        for col in reference_columns(ref["mode"]):
            if row.get(col) != ref[col]:
                bad("%s = %r, reference %r", col, row.get(col), ref[col])
        try:
            if int(row["seeds"]) != n_seeds:
                bad("seeds = %s, want %d", row["seeds"], n_seeds)
            for col in ("s_c_bps", "s_o_bps", "collisions"):
                v = float(row[col])
                if not (math.isfinite(v) and v >= 0.0):
                    bad("%s = %r is not finite and >= 0", col, v)
            for col in SERVED:
                if not 0.0 <= float(row[col]) <= 1.0:
                    bad("%s = %s is not in [0, 1]", col, row[col])
            if row["mode"] == "proposed":
                for col in SERVED:
                    if float(row[col]) != 1.0:
                        bad("%s = %s, want 1", col, row[col])
                gap = abs(float(row["n_r_measured"]) - float(row["n_r_analytic"]))
                if not gap <= 1.0:
                    bad("|n_r_measured - n_r_analytic| = %g > 1", gap)
            elif row["mode"] == "scheme1" and float(row["served_new"]) != 0.0:
                bad("served_new = %s, want 0", row["served_new"])
        except (KeyError, TypeError, ValueError) as e:
            bad("unreadable row: %r", e)
    return problems


def failed_cells(rows: list, spec: dict, reference_rows) -> tuple:
    """(cells counted as failed, messages): a failed row fails all its cells."""
    problems = check_rows(rows, spec, reference_rows)
    n_seeds = len(spec["seeds"])
    if any(i < 0 for i, _ in problems):
        failed = len(reference_rows) * n_seeds
    else:
        failed = len({i for i, _ in problems}) * n_seeds
    return failed, [msg for _, msg in problems]
