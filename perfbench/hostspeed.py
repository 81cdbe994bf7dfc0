"""Host speed probe: a fixed kernel timed in the benchmark's parent process.

The host is shared, and its speed drifts by about 20% over minutes, both
ways, as other tenants come and go.  run.py times this kernel just before
and just after every pass and scales the pass's end-to-end times by
``REFERENCE_S`` over the mean of those two probes.  The times it reports
are therefore seconds on a host on which the probe takes ``REFERENCE_S``;
the raw times are printed beside them.

The kernel does not touch ris_mac, so a change to the program cannot move
it.  It mixes what the program spends its time on: an interpreted loop,
many small numpy calls, and elementwise work on a complex array of a
channel's size.  No BLAS call, so the thread count does not matter.
"""

from __future__ import annotations

import statistics
import time

# Median probe time on the host the baseline was measured on (Intel Xeon
# KVM guest, 2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 0.055
REPEATS = 5


def _kernel() -> float:
    import numpy as np

    start = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i % 7
    a = np.arange(64.0)
    for _ in range(10_000):
        a = np.sqrt(a + 1.0)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((400, 2, 128)) + 1j * rng.standard_normal((400, 2, 128))
    for _ in range(12):
        np.abs(b * b.conj()).sum(axis=2)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the kernel takes now: the median of a few timings."""
    return statistics.median(_kernel() for _ in range(REPEATS))
