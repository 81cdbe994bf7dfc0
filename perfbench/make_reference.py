"""Regenerate reference.json: the RNG-independent columns of every variant.

    python3 perfbench/make_reference.py

Run it from a source checkout only when a change is meant to alter those
columns, and say so in CHANGES.md.  Rows that break the invariants in
workloads.check_rows are refused rather than stored.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def reference_rows(name: str, variant: int) -> list:
    spec = workloads.job_spec(name, variant)
    out = os.path.join(run.OUT, "reference-%s-%d.csv" % (name, variant))
    if run.run_child(spec, timeout_s=600.0, out=out) is None:
        raise RuntimeError("worker failed on %s variant %d" % (name, variant))
    rows = workloads.read_rows(out)
    ref = [
        {k: row[k] for k in ("value", "mode") + workloads.reference_columns(row["mode"])}
        for row in rows
    ]
    problems = workloads.check_rows(rows, spec, ref)
    if problems:
        raise RuntimeError("%s variant %d: %s" % (name, variant, problems))
    return ref


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    table = {}
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            table[workloads.reference_key(name, variant)] = reference_rows(name, variant)
            print("%s variant %d done" % (name, variant), flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
