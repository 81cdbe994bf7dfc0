"""Result persistence: stable CSV/JSON tables plus a reproduction manifest.

Floats serialize with 12 significant digits and columns keep a fixed order,
so a rerun with the same scenario, seeds, and artifact version emits
byte-identical files.  The manifest timestamp honors RIS_MAC_TIMESTAMP so
determinism harnesses can pin it.  The manifest also names the numpy and
Python versions.  The contention draws rest only on PCG64's raw outputs,
by the simulator's documented rule: a word is the high 32 bits of one
``random_raw`` output, a draw below b is (w * b) >> 32 with no rejection
(each value's probability off by at most b / 2^32 of itself), and each
contender takes one word a round, whose draw v below W_s * C_s is its
counter times C_s plus its pick, so its sort key is v * n0 + index.  The
channel draws are Generator normals, so a byte-for-byte rerun needs the
same numpy.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from . import __version__

CSV_FLOAT_DIGITS = 12


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v != v:  # NaN
            return "nan"
        return format(v, ".%dg" % CSV_FLOAT_DIGITS)
    return str(v)


def write_table(rows, columns, path: str, fmt: str = "csv") -> None:
    """Write rows (dicts) with the given column order; header-only when empty."""
    if fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json, got %r" % fmt)
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(format_value(row.get(c, "")) for c in columns))
        body = "\n".join(lines) + "\n"
    else:
        payload = [
            {c: (format_value(row.get(c)) if isinstance(row.get(c), float) else row.get(c))
             for c in columns}
            for row in rows
        ]
        body = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(body)


def file_sha256(path: str) -> str:
    import hashlib  # deferred: a run that draws nothing and writes no manifest skips it

    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def manifest_timestamp() -> str:
    pinned = os.environ.get("RIS_MAC_TIMESTAMP")
    if pinned is not None:
        return pinned
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def write_manifest(
    path: str,
    scenario_path,
    seeds,
    sweep_spec,
    output_paths,
) -> dict:
    """Record everything needed to reproduce the outputs byte for byte."""
    manifest = {
        "artifact_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "scenario_path": scenario_path,
        "scenario_sha256": file_sha256(scenario_path) if scenario_path else None,
        "seeds": list(seeds),
        "sweep": str(sweep_spec) if sweep_spec is not None else None,
        "timestamp": manifest_timestamp(),
        "outputs": {p: file_sha256(p) for p in output_paths},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest
