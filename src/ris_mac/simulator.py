"""Monte-Carlo frame engine: pilots, computing, scheduled slots, and the
RTS/CTS contention rounds, event by event.

The scheduled period is deterministic given the allocation: each scheduled
user transmits through its assigned surface at the realization's cached
aligned amplitude |r| + sum |h||g| (every element co-phased with the direct
path; allocations carry only surface, slot and power), the same gain the
optimizer and the contended grants read.  The contended period advances in
rounds of one handshake time t_r each.  A round draws every remaining
contender's subchannel pick and then its backoff counter in one array call
on a per-frame bounds array: C_s per pick (filled once per frame) followed by
each contender's window, read from the per-stage table min(w_min * 2^s,
w_max); numpy consumes the bit stream for an array-bound draw element by
element as for the same scalar draws, so the stream equals per-user draws in
sorted-id order.  One sort of the unique channel-major key
(pick * (w_max + 1) + counter) * n + index resolves every occupied
subchannel at once: each channel's group is led by its minimum counter,
whose unique holder wins, while a tie is a collision that raises the tied
users' stages, and only their entries of the bounds are rewritten.  A round
that serves anyone shrinks the per-frame state with one keep-mask.  The
grant order is a permutation of the occupied channels, drawn only when two
or more are occupied: permutation(0) and permutation(1) consume no bits.
The BS paces its CTS grants to the closed-form service recursion, drawn
lazily from dcf.service_rounds, the generator contention_cascade sizes the
contended period from: each round adds the recursion's increment to the
serves owed, grants min(owed, occupied channels), and carries the rest to
the next round.  So the rounds-to-all-served tracks the analytic round count
while the seed decides which user wins which round, on which channel, and at
what rate; a granted collided channel re-draws its winner among its
contenders in ascending index order.  Backoff airtime is not part of the t_r
budget, matching the handshake-time accounting; counters are logged as event
metadata.

A frame sums the bits of each period as it grants them, in the order a
stable time sort of its trace holds the data events (float addition is not
associative): scheduled grants by (slot, ascending user), contended grants
round by round in grant order; optimizer.throughput_from_bits turns the two
sums into S_s, S_c and S_o.  TraceEvents are built only when a caller asks
(run_frame's ``record``, set by ``run_cell(events=[...])`` and so by
``simulate --events``); sweep frames carry an empty event list.
measure_throughput recomputes the three figures from a recorded trace.

A grant's rate stays a scalar chain per grant (optimizer.distributed_ris_select
over Python floats): numpy's ``a**2`` and Python's ``float(a)**2`` differ in
the last bit for some values, so rates computed as arrays would move table
bytes.

Benchmarks: scheme 1 schedules every existing user centrally (new arrivals
wait a frame); scheme 2 lets everyone contend.  Both run against the same
transmission-period duration as the proposed frame so the comparison is at
equal channel time.  Each planner encodes its split in the FrameConfig it
returns (scheme 1 alpha = 1, beta = 0; scheme 2 alpha = 0, beta = 1), and
run_frame reads every period length only from that FrameConfig.  plan_mode
is the one place a mode name picks a planner.
"""

from __future__ import annotations

import bisect
import itertools
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
    events: list  # time-sorted TraceEvents if the frame recorded them, else empty
    served: np.ndarray  # bool per user
    bits: np.ndarray  # delivered bits per user
    class_of_user: np.ndarray
    n_r_measured: int
    collisions: int
    # model deviations, kept out of the result tables: scheduled grants
    # past the slots the transmission period holds, serves the service
    # recursion asked for beyond the occupied channels (each carries over
    # to the next round and counts once per round it stays owed), and
    # contenders still waiting when the round budget ran out
    grants_dropped: int = 0
    grant_shortfall: int = 0
    contenders_left: int = 0
    throughput_scheduled_bps: float = 0.0
    throughput_contended_bps: float = 0.0
    throughput_overall_bps: float = 0.0


def user_classes(scenario: Scenario) -> np.ndarray:
    pop = scenario.population
    cls = np.full(pop.num_total, CLASS_NEW, dtype=int)
    static = np.array(pop.mobility_flags) == 1
    cls[: static.size] = np.where(static, CLASS_STATIC, CLASS_MOBILE)
    return cls


def window_table(dcf) -> list:
    """Binary exponential backoff: the window min(w_min * 2^s, w_max) at each
    stage s = 0..max_backoff_stage; a collision moves a contender one stage
    up, capped at the last."""
    return [min(dcf.w_min * 2**s, dcf.w_max) for s in range(dcf.max_backoff_stage + 1)]


def resolve_backoff(pick: np.ndarray, counters: np.ndarray, w_max: int) -> tuple:
    """First-expiry resolution of one round on every occupied subchannel.

    One sort of the unique key ``(pick * (w_max + 1) + counter) * n + index``
    groups the n contenders by channel, each group led by its minimum counter
    with ties in ascending index order (counters are below w_max, so keys
    never cross a channel; they fit int64 while C_s * (w_max + 1) * n stays
    below 2^63, which ``validate_scenario``'s w_max < 2^31 keeps for any
    C_s * n below 2^32); each group's bounds and its run of minimum keys
    are then found by bisection.  Returns lists (occupied, lead, collided,
    tied):

    - ``occupied``: the channels with contenders, ascending;
    - ``lead``: per occupied channel, the index of its minimum counter's
      holder (on a tie, the lowest tied index);
    - ``collided``: per occupied channel, whether the minimum is tied, so
      those users' RTS frames collide and the channel has no winner;
    - ``tied``: the indices of every tied user, ascending within a channel.
    """
    n = len(counters)
    per_channel = (w_max + 1) * n
    keys = (pick * (w_max + 1) + counters) * n + np.arange(n)
    keys.sort()  # in place: np.sort would copy the fresh array
    keys = keys.tolist()
    occupied, lead, collided, tied = [], [], [], []
    start = 0
    while start < n:
        first = keys[start]
        c = first // per_channel
        end = bisect.bisect_left(keys, (c + 1) * per_channel, start)
        run = bisect.bisect_left(keys, (first // n + 1) * n, start, end)
        tie = run - start > 1
        occupied.append(c)
        lead.append(first % n)
        collided.append(tie)
        if tie:
            tied.extend(key % n for key in keys[start:run])
        start = end
    return occupied, lead, collided, tied


def run_frame(
    scenario: Scenario,
    channels: chan.ChannelRealization,
    frame: opt.FrameConfig,
    alloc: opt.AllocationState,
    mode: str,
    seed: int,
    record: bool = False,
) -> FrameTrace:
    """Replay one frame and return its tallies; with ``record`` its
    time-sorted event trace too (otherwise ``events`` is empty).

    Every period length comes from ``frame``; ``mode`` only chooses who is
    scheduled and who contends, checks that ``alloc`` holds the scheduled
    users' grants, and labels the trace.

    The bits of each period are summed as the grants are made, in the order
    a stable time sort of the trace holds them: scheduled grants by (slot,
    ascending user), contended grants round by round in grant order, so
    measure_throughput over a recorded trace gives the same three figures.
    """
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
    slot_of, ris_of = alloc.slot_of_user.tolist(), alloc.ris_of_user.tolist()
    for k in scheduled:
        if slot_of[k] < 0 or ris_of[k] < 0:
            raise ModeMismatchError(
                "mode %s schedules user %d but the allocation holds no grant" % (mode, k)
            )

    rng = np.random.default_rng(seed)
    events: list = []
    served = np.zeros(n_users, dtype=bool)
    bits = np.zeros(n_users)

    if record:
        if frame.t0_s > 0:
            for i in range(pop.num_existing):
                events.append(TraceEvent(i * dcf.pilot_time_s, "pilot", i))
        if frame.t1_s > 0:
            events.append(TraceEvent(frame.t0_s, "compute"))

    sched_start = frame.t0_s + frame.t1_s
    slots_available = int(math.floor(frame.scheduled_s / dcf.data_slot_s + 1e-9))
    grants_dropped = 0
    sched_bits = 0.0
    granted, gained = [], []
    if scheduled:
        noise, bw, slot_s = radio.noise_w, radio.subchannel_bw_hz, dcf.data_slot_s
        rho = alloc.rho_sq_w.tolist()
        amp = channels.aligned_amplitude.tolist()
        # users are listed ascending, so the stable sort gives (slot, user) order
        scheduled.sort(key=slot_of.__getitem__)
        for k in scheduled:
            j = slot_of[k]
            if j >= slots_available:
                grants_dropped += 1  # common transmission budget too short for this grant
                continue
            m = ris_of[k]
            delivered = slot_s * chan.rate_bps(chan.amplitude_snr(amp[k][m], rho[k], noise), bw)
            sched_bits += delivered
            granted.append(k)
            gained.append(delivered)
            if record:
                ch = scenario.ris.subchannel_of_ris[m]
                t_slot = sched_start + j * slot_s
                events.append(TraceEvent(t_slot, "slot-grant", k, ch, m))
                events.append(TraceEvent(t_slot, "data", k, ch, m, delivered))
        # each user holds at most one slot and contends in no mode that schedules it
        served[granted] = True
        bits[granted] = gained

    cont_start = sched_start + frame.scheduled_s
    cont_budget = frame.contended_s
    n_r_measured = collisions = grant_shortfall = 0
    cont_bits = 0.0
    contenders_left = len(contenders)
    if contenders and cont_budget > 0:
        n_r_measured, collisions, grant_shortfall, contenders_left, cont_bits = _run_contention(
            scenario, channels, alloc, contenders, cont_start, cont_budget,
            rng, events if record else None, served, bits,
        )

    if record:
        total = frame.total_s
        last = max((e.time_s for e in events), default=0.0)
        if total > last:
            events.append(TraceEvent(total, "idle"))
        events.sort(key=itemgetter(0))  # stable: ties keep their append order

    s_s, s_c, s_o = opt.throughput_from_bits(frame, sched_bits, cont_bits)
    return FrameTrace(
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
        throughput_scheduled_bps=s_s,
        throughput_contended_bps=s_c,
        throughput_overall_bps=s_o,
    )


def _run_contention(
    scenario, channels, alloc, contenders, start_s, budget_s, rng, events, served, bits
):
    """Round-paced DCF with BS-gated grants.

    Appends the rounds' TraceEvents to ``events`` unless it is None.
    Returns (rounds, collisions, grant_shortfall, contenders_left, bits),
    ``bits`` summed over the grants round by round in grant order.
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
    rho = alloc.rho_sq_w.tolist()

    def select(k, c):
        return opt.distributed_ris_select(channels, k, ris_on_channel[c], rho[k], noise, bw)

    # per-frame state, indexed like the sorted contender ids: each one's
    # backoff stage, and the draw bounds, C_s per pick (unless the picks are
    # CSI-fixed) followed by each one's window, so a round is one RNG call
    remaining = sorted(int(k) for k in contenders)
    n = len(remaining)
    stage = [0] * n
    windows = window_table(dcf)
    top = dcf.max_backoff_stage
    draw_picks = not scenario.csi_best_channel
    lo = n if draw_picks else 0  # where the windows start in the bounds
    bounds = np.full(lo + n, len(live_channels), dtype=np.int64)
    bounds[lo:] = windows[0]
    # the recursion's cumulative service, held at n once it has served everyone
    paced = itertools.chain(
        dcfmod.service_rounds(n, len(live_channels), dcf.w_min, top), itertools.repeat((n, False))
    )
    rounds_budget = int(math.floor(budget_s / t_r + 1e-9))
    best_channel = None  # csi_best_channel picks, fixed before the first round
    if not draw_picks and rounds_budget > 0:
        best_channel = np.array(
            [np.argmax([select(k, c)[1] for c in range(len(live_channels))]) for k in remaining]
        )

    rounds = collisions = grant_shortfall = owed = paced_served = 0
    bits_sum = 0.0
    while n and rounds < rounds_budget:
        t_rts = start_s + rounds * t_r + dcf.difs_s
        served_after, _ = next(paced)
        owed += served_after - paced_served
        paced_served = served_after
        draws = rng.integers(0, bounds)
        pick = draws[:n] if draw_picks else best_channel
        counters = draws[lo:]

        occupied, lead, collided, tied = resolve_backoff(pick, counters, dcf.w_max)
        for i in tied:
            s = stage[i] = min(stage[i] + 1, top)
            bounds[lo + i] = windows[s]
        collisions += sum(collided)
        if events is not None:
            for c, i, tie in zip(occupied, lead, collided):
                if tie:
                    events.append(TraceEvent(
                        t_rts, "collision", -1, live_channels[c], -1, float(counters[i])
                    ))

        # permutation(0) and permutation(1) draw no bits, so one channel needs no call
        if len(occupied) > 1:
            grant_order = rng.permutation(len(occupied)).tolist()
        else:
            grant_order = [0]
        # serves the recursion asked for beyond the occupied channels carry
        # over to the next round
        grants = min(owed, len(occupied))
        owed -= grants
        grant_shortfall += owed
        granted = []
        for g in grant_order[:grants]:
            c, i = occupied[g], lead[g]
            if collided[g]:
                # post-collision re-draw inside the round settles on one
                # of the channel's contenders, in ascending index order
                here = np.flatnonzero(pick == c)
                i = int(here[rng.integers(0, here.size)])
            k = remaining[i]
            m_star, rate = select(k, c)
            delivered = dcf.payload_time_s * rate
            served[k] = True
            bits[k] += delivered
            bits_sum += delivered
            granted.append(i)
            if events is not None:
                ch = live_channels[c]
                t_cts = t_rts + rts_s + dcf.sifs_s
                t_data = t_cts + cts_s + dcf.sifs_s
                events.append(TraceEvent(t_rts, "rts", k, ch, m_star, float(counters[i])))
                events.append(TraceEvent(t_cts, "cts", k, ch, m_star))
                events.append(TraceEvent(t_data, "data", k, ch, m_star, delivered))
        if events is not None:
            # candidates that expired without a grant sent an RTS the BS ignored
            for g in grant_order[grants:]:
                if not collided[g]:
                    i = lead[g]
                    events.append(
                        TraceEvent(t_rts, "rts", remaining[i], live_channels[occupied[g]], -1,
                                   float(counters[i]))
                    )
        if granted:
            keep = np.ones(n, dtype=bool)
            keep[granted] = False
            kept_windows = bounds[lo:][keep]
            for i in sorted(granted, reverse=True):
                del remaining[i], stage[i]
            n = len(remaining)
            lo = n if draw_picks else 0
            bounds = bounds[: lo + n]
            bounds[lo:] = kept_windows
            if best_channel is not None:
                best_channel = best_channel[keep]
        rounds += 1
    return rounds, collisions, grant_shortfall, n, bits_sum


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


def plan_mode(scenario, channels, plan, mode: str) -> tuple:
    """(frame, allocation) that ``mode`` runs against the proposed ``plan``:
    the plan's own for "proposed"; for a benchmark, its planner at the
    plan's transmission period t2 (equal channel time)."""
    if mode == "proposed":
        return plan.frame, plan.allocation
    if mode == "scheme1":
        return plan_scheme1(scenario, channels, plan.frame.t2_s)
    if mode == "scheme2":
        return plan_scheme2(scenario, plan.frame.t2_s)
    raise ModeMismatchError("unknown mode %r" % mode)


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
