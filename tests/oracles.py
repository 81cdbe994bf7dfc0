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
- scheduled_period: the scheduled half of a frame, user by user in
  (slot, ascending user) order with a scalar bit sum, which
  simulator.run_frame does in array passes.
- repair_overfull: the slot repair with every column pair's heap built up
  front, which optimizer._repair_overfull builds on first read.
- check_allocation: the allocation audit, user by user, which
  optimizer.check_allocation does with array masks.

Do not edit the bodies below to follow the package; they are the
specification it must reproduce.
"""

import heapq
import math

import numpy as np

from ris_mac import channel as chan
from ris_mac import optimizer as opt
from ris_mac.channel import TWO_PI
from ris_mac.simulator import FrameTrace, TraceEvent


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


def scheduled_period(scenario, channels, frame, alloc, record: bool) -> tuple:
    """The scheduled period of one frame: (served, bits, grants_dropped,
    scheduled bits, events), events the slot-grant and data events when
    ``record``, in (slot, ascending user) order."""
    radio, dcf = scenario.radio, scenario.dcf
    n_users = scenario.population.num_total
    slot_of, ris_of = alloc.slot_of_user.tolist(), alloc.ris_of_user.tolist()
    scheduled = np.flatnonzero(alloc.slot_of_user >= 0).tolist()
    events = []
    served = np.zeros(n_users, dtype=bool)
    bits = np.zeros(n_users)
    sched_start = frame.t0_s + frame.t1_s
    slots_available = int(math.floor(frame.scheduled_s / dcf.data_slot_s + 1e-9))
    grants_dropped = 0
    sched_bits = 0.0
    if scheduled:
        slot_s = dcf.data_slot_s
        # users are listed ascending, so the stable sort gives (slot, user) order
        scheduled.sort(key=slot_of.__getitem__)
        # a grant past the slots the common transmission budget holds is dropped
        granted = [k for k in scheduled if slot_of[k] < slots_available]
        grants_dropped = len(scheduled) - len(granted)
        surface = [ris_of[k] for k in granted]
        gained = (slot_s * chan.aligned_rates(
            channels.aligned_amplitude[granted, surface], alloc.rho_sq_w[granted],
            radio.noise_w, radio.subchannel_bw_hz,
        )).tolist()
        for delivered in gained:
            sched_bits += delivered
        if record:
            for k, m, delivered in zip(granted, surface, gained):
                ch = scenario.ris.subchannel_of_ris[m]
                t_slot = sched_start + slot_of[k] * slot_s
                events.append(TraceEvent(t_slot, "slot-grant", k, ch, m))
                events.append(TraceEvent(t_slot, "data", k, ch, m, delivered))
        served[granted] = True
        bits[granted] = gained
    return served, bits, grants_dropped, sched_bits, events


def repair_overfull(rates: np.ndarray, col_of: np.ndarray, load: list, cap: int) -> None:
    """Move users until no column of col_of holds more than cap (in place).

    heaps[a][b] holds (R[u, a] - R[u, b], u) for users u that were on
    column a when pushed; entries of users that have since left a are
    dropped lazily when they reach the top.
    """
    m = len(load)
    heaps = [[None] * m for _ in range(m)]
    for a in range(m):
        on_a = np.flatnonzero(col_of == a)
        for b in range(m):
            if b != a:
                loss = rates[on_a, a] - rates[on_a, b]
                heaps[a][b] = sorted(zip(loss.tolist(), on_a.tolist()))

    def cheapest(a, b):
        heap = heaps[a][b]
        while heap and col_of[heap[0][1]] != a:
            heapq.heappop(heap)
        return heap[0] if heap else None

    excess = sum(n - cap for n in load if n > cap)
    for _ in range(excess):
        top = [[cheapest(a, b) if b != a else None for b in range(m)] for a in range(m)]
        # Bellman-Ford from every over-full column at once; paths kept simple
        dist = [0.0 if n > cap else math.inf for n in load]
        path = [[a] for a in range(m)]
        for _ in range(m - 1):
            for a in range(m):
                if dist[a] == math.inf:
                    continue
                for b in range(m):
                    hop = top[a][b]
                    if hop is not None and dist[a] + hop[0] < dist[b] and b not in path[a]:
                        dist[b] = dist[a] + hop[0]
                        path[b] = path[a] + [b]
        sink = min((b for b in range(m) if load[b] < cap), key=lambda b: dist[b])
        hops = list(zip(path[sink], path[sink][1:]))
        movers = [top[a][b][1] for a, b in hops]
        for (_, b), u in zip(hops, movers):
            col_of[u] = b
            for c in range(m):
                if c != b:
                    heapq.heappush(heaps[b][c], (rates[u, b] - rates[u, c], u))
        load[path[sink][0]] -= 1
        load[sink] += 1


def check_allocation(
    alloc: opt.AllocationState,
    static_ids,
    mobile_ids,
    subchannel_of_ris,
    num_slots: int,
    p_max_w: float,
) -> list:
    """Standalone feasibility audit; returns a list of violations."""
    bad = []
    ris_of = alloc.ris_of_user
    num_ris = len(subchannel_of_ris)
    for k in static_ids:
        if not 0 <= ris_of[k] < num_ris:
            bad.append(
                "static user %d holds RIS %d, not one of 0..%d" % (k, ris_of[k], num_ris - 1)
            )
        if alloc.slot_of_user[k] < 0 or alloc.slot_of_user[k] >= num_slots:
            bad.append("static user %d must hold exactly one data slot" % k)
    for k in mobile_ids:
        if ris_of[k] != -1 and not 0 <= ris_of[k] < num_ris:
            bad.append(
                "mobile user %d holds RIS %d, not -1 or one of 0..%d" % (k, ris_of[k], num_ris - 1)
            )
    holder = {}
    for k in static_ids:
        if 0 <= ris_of[k] < num_ris:
            pair = (subchannel_of_ris[ris_of[k]], int(alloc.slot_of_user[k]))
            if pair in holder:
                bad.append(
                    "subchannel %d slot %d held by users %d and %d" % (pair + (holder[pair], k))
                )
            else:
                holder[pair] = k
    if static_ids:
        total = float(alloc.rho_sq_w[np.asarray(static_ids, dtype=int)].sum())
        if total > p_max_w + opt.POWER_TOL * max(1.0, p_max_w):
            bad.append("static power budget exceeded: %.6g > %.6g" % (total, p_max_w))
    return bad
