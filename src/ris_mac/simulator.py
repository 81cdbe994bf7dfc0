"""Monte-Carlo frame engine: pilots, computing, scheduled slots, and the
RTS/CTS contention rounds, event by event.

The scheduled period is deterministic given the allocation: each scheduled
user transmits through its assigned surface at the realization's cached
aligned amplitude |r| + sum |h||g| (every element co-phased with the direct
path; allocations carry only surface, slot and power), the same gain the
optimizer and the contended grants read.  The contended period advances in
rounds of one handshake time t_r each.  A round draws every remaining
contender's subchannel pick and then its backoff counter, from its window
min(w_min * 2^stage, w_max), in one array call whose bounds are C_s per
pick followed by the windows; numpy consumes the bit stream for an
array-bound draw element by element as for the same scalar draws, so the
stream equals per-user draws in sorted-id order.  One stable sort of the
channel-major key pick * (w_max + 1) + counter resolves every occupied
subchannel at once: each channel's group is led by its minimum counter,
whose unique holder wins, while a tie is a collision that raises the tied
users' stages.  The windows are kept across rounds and recomputed only for
those tied users, and a round that serves anyone shrinks the contender
arrays with one keep-mask.  The BS paces its CTS grants to the closed-form
service recursion (it sizes the contention budget from that recursion and
admits accordingly), so the rounds-to-all-served tracks the analytic round
count while the seed decides which user wins which round, on which channel,
and at what rate; a granted collided channel re-draws its winner among its
contenders in ascending index order.  Backoff airtime is not part of the
t_r budget, matching the handshake-time accounting; counters are logged as
event metadata.

Benchmarks: scheme 1 schedules every existing user centrally (new arrivals
wait a frame); scheme 2 lets everyone contend.  Both run against the same
transmission-period duration as the proposed frame so the comparison is at
equal channel time.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import channel as chan
from . import dcf as dcfmod
from . import optimizer as opt
from .scenario import Scenario, classify_users

MODES = ("proposed", "scheme1", "scheme2")

CLASS_STATIC = 0
CLASS_MOBILE = 1
CLASS_NEW = 2


class ModeMismatchError(ValueError):
    pass


class TraceEvent(NamedTuple):
    time_s: float
    kind: str  # pilot | compute | slot-grant | rts | cts | data | collision | idle
    user: int = -1
    channel: int = -1
    ris: int = -1
    value: float = 0.0  # bits for data, counter for rts/collision


@dataclass
class FrameTrace:
    mode: str
    frame: opt.FrameConfig
    events: list
    served: np.ndarray  # bool per user
    bits: np.ndarray  # delivered bits per user
    class_of_user: np.ndarray
    n_r_measured: int
    collisions: int
    # model deviations, kept out of the result tables: scheduled grants
    # past the slots the transmission period holds, CTS grants the service
    # recursion asked for beyond the occupied channels, and contenders
    # still waiting when the round budget ran out
    grants_dropped: int = 0
    grant_shortfall: int = 0
    contenders_left: int = 0
    throughput_scheduled_bps: float = 0.0
    throughput_contended_bps: float = 0.0
    throughput_overall_bps: float = 0.0


def user_classes(scenario: Scenario) -> np.ndarray:
    pop = scenario.population
    cls = np.full(pop.num_total, CLASS_NEW, dtype=int)
    for k, u in enumerate(pop.mobility_flags):
        cls[k] = CLASS_STATIC if u == 1 else CLASS_MOBILE
    return cls


def contention_windows(stage: np.ndarray, dcf) -> np.ndarray:
    """Binary exponential backoff: cw = min(w_min * 2^stage, w_max) per contender."""
    return np.minimum(dcf.w_min * 2**stage, dcf.w_max)


def next_stage(stage: np.ndarray, dcf) -> np.ndarray:
    """Backoff stages after a collision: one up, capped at max_backoff_stage."""
    return np.minimum(stage + 1, dcf.max_backoff_stage)


def resolve_backoff(pick: np.ndarray, counters: np.ndarray, w_max: int) -> tuple:
    """First-expiry resolution of one round on every occupied subchannel.

    One stable sort of the channel-major key ``pick * (w_max + 1) + counter``
    groups the contenders by channel, each group led by its minimum counter
    with ties in ascending index order (counters are below w_max, so keys
    never cross a channel); each group's bounds and its run of minimum keys
    are then found by bisection.  Returns lists (occupied, lead, collided,
    tied):

    - ``occupied``: the channels with contenders, ascending;
    - ``lead``: per occupied channel, the index of its minimum counter's
      holder (on a tie, the lowest tied index);
    - ``collided``: per occupied channel, whether the minimum is tied, so
      those users' RTS frames collide and the channel has no winner;
    - ``tied``: the indices of every tied user, ascending within a channel.
    """
    span = w_max + 1
    key = pick * span + counters
    order = key.argsort(kind="stable")
    key, order = key[order].tolist(), order.tolist()
    occupied, lead, collided, tied = [], [], [], []
    start = 0
    while start < len(key):
        c = key[start] // span
        end = bisect.bisect_left(key, (c + 1) * span, start)
        run = bisect.bisect_right(key, key[start], start, end)
        tie = run - start > 1
        occupied.append(c)
        lead.append(order[start])
        collided.append(tie)
        if tie:
            tied.extend(order[start:run])
        start = end
    return occupied, lead, collided, tied


def run_frame(
    scenario: Scenario,
    channels: chan.ChannelRealization,
    frame: opt.FrameConfig,
    alloc: opt.AllocationState,
    mode: str,
    seed: int,
) -> FrameTrace:
    """Replay one frame and return its event trace and tallies."""
    if mode not in MODES:
        raise ModeMismatchError("unknown mode %r" % mode)
    radio, dcf = scenario.radio, scenario.dcf
    pop = scenario.population
    n_users = pop.num_total
    static_ids, mobile_ids = classify_users(pop)
    cls = user_classes(scenario)

    if mode == "proposed":
        scheduled = list(static_ids)
        contenders = list(mobile_ids)
    elif mode == "scheme1":
        scheduled = list(range(pop.num_existing))
        contenders = []
    else:
        scheduled = []
        contenders = list(range(n_users))
    for k in scheduled:
        if alloc.slot_of_user[k] < 0 or alloc.ris_of_user[k] < 0:
            raise ModeMismatchError(
                "mode %s schedules user %d but the allocation holds no grant" % (mode, k)
            )

    rng = np.random.default_rng(seed)
    events: list = []
    served = np.zeros(n_users, dtype=bool)
    bits = np.zeros(n_users)

    if frame.t0_s > 0:
        for i in range(pop.num_existing):
            events.append(TraceEvent(i * dcf.pilot_time_s, "pilot", i))
    if frame.t1_s > 0:
        events.append(TraceEvent(frame.t0_s, "compute"))

    sched_start = frame.t0_s + frame.t1_s
    sched_len = frame.scheduled_s if mode == "proposed" else frame.t2_s
    slots_available = int(math.floor(sched_len / dcf.data_slot_s + 1e-9))
    grants_dropped = 0
    noise, bw = radio.noise_w, radio.subchannel_bw_hz
    for k in sorted(scheduled):
        j = int(alloc.slot_of_user[k])
        if j >= slots_available:
            grants_dropped += 1  # common transmission budget too short for this grant
            continue
        m = int(alloc.ris_of_user[k])
        ch = scenario.ris.subchannel_of_ris[m]
        t_slot = sched_start + j * dcf.data_slot_s
        snr = chan.amplitude_snr(channels.aligned_amplitude[k, m], float(alloc.rho_sq_w[k]), noise)
        rate = chan.rate_bps(snr, bw)
        delivered = dcf.data_slot_s * rate
        events.append(TraceEvent(t_slot, "slot-grant", k, ch, m))
        events.append(TraceEvent(t_slot, "data", k, ch, m, delivered))
        served[k] = True
        bits[k] += delivered

    cont_start = sched_start + (frame.scheduled_s if mode != "scheme2" else 0.0)
    cont_budget = frame.contended_s if mode != "scheme2" else frame.t2_s
    n_r_measured = collisions = grant_shortfall = 0
    contenders_left = len(contenders)
    if contenders and cont_budget > 0:
        n_r_measured, collisions, grant_shortfall, contenders_left = _run_contention(
            scenario, channels, alloc, contenders, cont_start, cont_budget,
            rng, events, served, bits,
        )

    total = frame.total_s
    last = max((e.time_s for e in events), default=0.0)
    if total > last:
        events.append(TraceEvent(total, "idle"))
    events.sort(key=itemgetter(0))  # stable: ties keep their append order

    trace = FrameTrace(
        mode=mode,
        frame=frame,
        events=events,
        served=served,
        bits=bits,
        class_of_user=cls,
        n_r_measured=n_r_measured,
        collisions=collisions,
        grants_dropped=grants_dropped,
        grant_shortfall=grant_shortfall,
        contenders_left=contenders_left,
    )
    s_s, s_c, s_o = measure_throughput(trace, frame)
    trace.throughput_scheduled_bps = s_s
    trace.throughput_contended_bps = s_c
    trace.throughput_overall_bps = s_o
    return trace


def _run_contention(
    scenario, channels, alloc, contenders, start_s, budget_s, rng, events, served, bits
):
    """Round-paced DCF with BS-gated grants.

    Returns (rounds, collisions, grant_shortfall, contenders_left).
    """
    radio, dcf = scenario.radio, scenario.dcf
    t_r = dcfmod.handshake_time(dcf)
    rts_s = dcf.rts_bytes * 8 / dcf.control_rate_bps
    cts_s = dcf.cts_bytes * 8 / dcf.control_rate_bps
    # channels are handled by their index into the sorted live subchannels
    live_channels = scenario.ris.subchannels
    ris_on_channel = [
        [m for m, c in enumerate(scenario.ris.subchannel_of_ris) if c == ch]
        for ch in live_channels
    ]

    noise, bw = radio.noise_w, radio.subchannel_bw_hz

    def select(k, c):
        return opt.distributed_ris_select(
            channels, k, ris_on_channel[c], float(alloc.rho_sq_w[k]), noise, bw
        )

    remaining = np.array(sorted(contenders), dtype=int)
    stage = np.zeros(remaining.size, dtype=int)
    cw = contention_windows(stage, dcf)  # kept across rounds, moved only by ties
    schedule = dcfmod.ServiceSchedule(
        remaining.size, len(live_channels), dcf.w_min, dcf.max_backoff_stage
    )
    rounds_budget = int(math.floor(budget_s / t_r + 1e-9))
    best_channel = None  # csi_best_channel picks, fixed when the first round starts

    rounds = collisions = grant_shortfall = 0
    while remaining.size and rounds < rounds_budget:
        t_rts = start_s + rounds * t_r + dcf.difs_s
        quota = schedule.advance()
        if scenario.csi_best_channel:
            if best_channel is None:
                best_channel = np.array(
                    [np.argmax([select(int(k), c)[1] for c in range(len(live_channels))])
                     for k in remaining]
                )
            pick = best_channel
            counters = rng.integers(0, cw)
        else:
            n = remaining.size
            draws = rng.integers(0, np.concatenate((np.full(n, len(live_channels)), cw)))
            pick, counters = draws[:n], draws[n:]

        occupied, lead, collided, tied = resolve_backoff(pick, counters, dcf.w_max)
        if tied:
            tied = np.array(tied)
            stage[tied] = raised = next_stage(stage[tied], dcf)
            cw[tied] = contention_windows(raised, dcf)
        for c, i, tie in zip(occupied, lead, collided):
            if tie:
                collisions += 1
                events.append(
                    TraceEvent(t_rts, "collision", -1, live_channels[c], -1, float(counters[i]))
                )

        grant_order = rng.permutation(len(occupied)).tolist()
        grants = min(quota, len(occupied))
        if grants < quota:
            # model demanded more serves than there are contended channels;
            # hand the shortfall back so the credit re-demands it next round
            schedule.served -= quota - grants
            grant_shortfall += quota - grants
        granted = []
        for g in grant_order[:grants]:
            c, i = occupied[g], lead[g]
            if collided[g]:
                # post-collision re-draw inside the round settles on one
                # of the channel's contenders, in ascending index order
                here = np.flatnonzero(pick == c)
                i = int(here[rng.integers(0, here.size)])
            k, ch = int(remaining[i]), live_channels[c]
            m_star, rate = select(k, c)
            t_cts = t_rts + rts_s + dcf.sifs_s
            t_data = t_cts + cts_s + dcf.sifs_s
            delivered = dcf.payload_time_s * rate
            events.append(TraceEvent(t_rts, "rts", k, ch, m_star, float(counters[i])))
            events.append(TraceEvent(t_cts, "cts", k, ch, m_star))
            events.append(TraceEvent(t_data, "data", k, ch, m_star, delivered))
            served[k] = True
            bits[k] += delivered
            granted.append(i)
        # candidates that expired without a grant sent an RTS the BS ignored
        for g in grant_order[grants:]:
            if not collided[g]:
                i = lead[g]
                events.append(
                    TraceEvent(t_rts, "rts", int(remaining[i]), live_channels[occupied[g]], -1,
                               float(counters[i]))
                )
        if granted:
            keep = np.ones(remaining.size, dtype=bool)
            keep[granted] = False
            remaining, stage, cw = remaining[keep], stage[keep], cw[keep]
            if best_channel is not None:
                best_channel = best_channel[keep]
        rounds += 1
    return rounds, collisions, grant_shortfall, int(remaining.size)


def measure_throughput(trace: FrameTrace, frame: opt.FrameConfig) -> tuple:
    """(S_s, S_c, S_o) recomputed from the trace's data events.

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


def measure_fairness(traces) -> dict:
    """Fraction of users served at least once per frame, split by class and
    averaged over frames."""
    traces = list(traces)
    if not traces:
        raise ValueError("measure_fairness needs at least one frame")
    names = {CLASS_STATIC: "static", CLASS_MOBILE: "mobile", CLASS_NEW: "new"}
    sums = {v: 0.0 for v in names.values()}
    counts = {v: 0 for v in names.values()}
    for tr in traces:
        for cid, name in names.items():
            mask = tr.class_of_user == cid
            if mask.sum() == 0:
                continue
            sums[name] += float(tr.served[mask].mean())
            counts[name] += 1
    return {
        name: (sums[name] / counts[name] if counts[name] else float("nan"))
        for name in names.values()
    }


def plan_scheme1(scenario, channels, t2_common: float) -> tuple:
    """Centralized benchmark: every existing user is scheduled; new users
    wait for the next frame.  Static users share the power budget, mobile
    users stay at their fixed power; the computing period reflects the
    all-users optimization cost."""
    radio, dcf, comp = scenario.radio, scenario.dcf, scenario.compute
    pop = scenario.population
    k_exist = pop.num_existing
    static_ids, _ = classify_users(pop)
    static_set = set(static_ids)
    existing = list(range(k_exist))
    j1 = -(-k_exist // len(scenario.ris.subchannels)) if k_exist else 0

    alloc = opt.empty_allocation(pop.num_total)
    if k_exist:
        rho = np.array(
            [
                radio.p_max_w / max(len(static_ids), 1) if k in static_set
                else radio.tx_power_mobile_w
                for k in existing
            ]
        )
        ris_of, slot_of, _ = opt.centralized_ris_config(
            channels, existing, rho, radio.noise_w, radio.subchannel_bw_hz, j1,
            scenario.ris.subchannel_of_ris,
        )
        eidx = np.asarray(existing, dtype=int)
        alloc.ris_of_user[eidx] = ris_of
        alloc.slot_of_user[eidx] = slot_of
        if static_ids:
            sidx = np.asarray(static_ids, dtype=int)
            amp = channels.aligned_amplitude[sidx, alloc.ris_of_user[sidx]]
            noise = radio.noise_w
            gains = np.array([a**2 / noise for a in amp.tolist()])
            alloc.rho_sq_w[sidx] = opt.allocate_power(
                gains, radio.p_max_w, radio.rate_min_bps,
                radio.subchannel_bw_hz, user_ids=static_ids,
            )
        for k in existing:
            if k not in static_set:
                alloc.rho_sq_w[k] = radio.tx_power_mobile_w

    ops = opt.complexity_ops(
        k_exist, scenario.ris.num_ris, scenario.ris.elements_per_ris, k_exist, comp.l1
    )
    frame = opt.FrameConfig(
        t0_s=k_exist * dcf.pilot_time_s,
        t1_s=comp.kappa_s_per_op * ops,
        t2_s=t2_common,
        alpha=1.0,
        beta=0.0,
        num_slots=j1,
        data_slot_s=dcf.data_slot_s,
    )
    return frame, alloc


def plan_scheme2(scenario, t2_common: float) -> tuple:
    """Distributed benchmark: no pilots, no central computing; everyone
    contends at the fixed mobile power."""
    radio = scenario.radio
    alloc = opt.empty_allocation(scenario.population.num_total)
    alloc.rho_sq_w[:] = radio.tx_power_mobile_w
    frame = opt.FrameConfig(
        t0_s=0.0,
        t1_s=0.0,
        t2_s=t2_common,
        alpha=0.0,
        beta=1.0,
        num_slots=0,
        data_slot_s=scenario.dcf.data_slot_s,
    )
    return frame, alloc
