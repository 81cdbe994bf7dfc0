"""Specifications that no command runs, kept as the references the tests
compare the package against.

- align_phases: the paper's phase rule.  The package stores no phases,
  since every rate reads the aligned amplitude; these phases are the
  closed-form witness that attains it.
- amplitude_snr and rate_bps: the scalar rate chain whose float operations
  channel.aligned_rates applies as arrays, bit for bit.
- rate_floor_power: the per-user floor whose bits optimizer.allocate_power
  builds from one array division.
- measure_throughput: (S_s, S_c, S_o) re-summed from a recorded trace's
  data events, a check on the figures run_frame sums as it grants.
- read_csv: a reader for the tables io.write_table writes.

Do not edit the bodies below to follow the package; they are the
specification it must reproduce.
"""

import math

import numpy as np

from ris_mac import optimizer as opt
from ris_mac.channel import TWO_PI
from ris_mac.simulator import FrameTrace


def align_phases(r: complex, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Co-phase every reflect element with the direct path.

    theta_n = (arg r - arg h_n - arg g_n) mod 2*pi makes each element's
    contribution to the composite gain r + sum_n h_n e^{j theta_n} g_n add
    in amplitude, which attains the triangle-inequality maximum
    |r| + sum |h_n||g_n|, the realization's aligned amplitude.  Elements
    with a zero-magnitude coefficient contribute nothing, so their
    (undefined) phase is pinned to 0.  Returns theta, radians in [0, 2*pi).
    """
    h = np.asarray(h)
    g = np.asarray(g)
    if h.shape != g.shape:
        raise ValueError("length mismatch: h %s vs g %s" % (h.shape, g.shape))
    theta = np.mod(np.angle(r) - np.angle(h) - np.angle(g), TWO_PI)
    theta = np.where((h == 0) | (g == 0), 0.0, theta)
    # mod can return 2*pi for angles within rounding of a full turn
    return np.where(theta >= TWO_PI, 0.0, theta)


def rate_bps(snr_linear: float, subchannel_bw_hz: float) -> float:
    """Shannon rate on one subchannel, (B/C) * log2(1 + SNR)."""
    if snr_linear < 0:
        raise ValueError("snr must be >= 0")
    return subchannel_bw_hz * np.log2(1.0 + snr_linear)


def amplitude_snr(amplitude: float, tx_power_w, noise_w) -> float:
    """Linear SNR amplitude^2 * P / sigma^2 of a composite amplitude."""
    if tx_power_w <= 0 or noise_w <= 0:
        raise ValueError("power and noise must be > 0")
    return float(amplitude) ** 2 * tx_power_w / noise_w


def rate_floor_power(gain_sq_over_noise: float, rate_min_bps: float, bw_hz: float) -> float:
    """Smallest transmit power meeting the per-user rate floor."""
    if gain_sq_over_noise <= 0:
        return math.inf
    return (2.0 ** (rate_min_bps / bw_hz) - 1.0) / gain_sq_over_noise


def measure_throughput(trace: FrameTrace, frame: opt.FrameConfig) -> tuple:
    """(S_s, S_c, S_o) recomputed from a recorded trace's data events, a
    check on the figures run_frame sums as it grants.

    Scheduled bits are the data events inside [t0+t1, t0+t1+alpha*t2);
    contended bits the ones after; optimizer.throughput_from_bits composes
    the three figures.
    """
    sched_start = frame.t0_s + frame.t1_s
    sched_end = sched_start + frame.scheduled_s
    sched_bits = 0.0
    cont_bits = 0.0
    for e in trace.events:
        if e.kind != "data":
            continue
        if sched_start <= e.time_s < sched_end:
            sched_bits += e.value
        else:
            cont_bits += e.value
    return opt.throughput_from_bits(frame, sched_bits, cont_bits)


def read_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]
