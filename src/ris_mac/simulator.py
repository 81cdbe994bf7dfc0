"""Monte-Carlo frame engine: pilots, computing, scheduled slots, and the
RTS/CTS contention rounds, event by event.

The scheduled period is deterministic given the allocation: each scheduled
user transmits through its assigned surface with that surface's phases
co-phased to the direct path, derived from the channels at transmit time
(allocations carry only surface, slot and power).  The contended
period advances in rounds of one handshake time t_r each: contenders pick a
subchannel, draw backoff counters, and the BS paces its CTS grants to the
closed-form service recursion (the BS sizes the contention budget from that
recursion and admits accordingly), so the rounds-to-all-served tracks the
analytic round count while the seed decides which user wins which round,
on which channel, and at what rate.  Backoff airtime is not part of the
t_r budget, matching the handshake-time accounting; counters are logged as
event metadata.

Benchmarks: scheme 1 schedules every existing user centrally (new arrivals
wait a frame); scheme 2 lets everyone contend.  Both run against the same
transmission-period duration as the proposed frame so the comparison is at
equal channel time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass
class BackoffState:
    """Binary exponential backoff: cw = min(w_min * 2^stage, w_max)."""

    w_min: int
    w_max: int
    max_stage: int
    stage: int = 0

    @property
    def cw(self) -> int:
        return min(self.w_min * 2**self.stage, self.w_max)

    def double(self) -> None:
        self.stage = min(self.stage + 1, self.max_stage)


@dataclass(frozen=True)
class TraceEvent:
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
    throughput_scheduled_bps: float = 0.0
    throughput_contended_bps: float = 0.0
    throughput_overall_bps: float = 0.0


def user_classes(scenario: Scenario) -> np.ndarray:
    pop = scenario.population
    cls = np.full(pop.num_total, CLASS_NEW, dtype=int)
    for k, u in enumerate(pop.mobility_flags):
        cls[k] = CLASS_STATIC if u == 1 else CLASS_MOBILE
    return cls


def resolve_backoff(counters: dict) -> tuple:
    """First-expiry resolution on one channel.

    Returns (winner, tied): the unique holder of the minimum counter wins;
    a tie means those users' RTS frames collide and there is no winner.
    """
    if not counters:
        return None, []
    lo = min(counters.values())
    tied = sorted(k for k, v in counters.items() if v == lo)
    if len(tied) == 1:
        return tied[0], []
    return None, tied


def _user_rate_via(channels, alloc, k, m, noise_w, bw_hz):
    # explicit phases through chan.snr, not chan.aligned_snr: the two differ
    # in the last bit for some inputs, and the tables stay byte-stable
    theta = chan.align_phases(channels.r[k], channels.h[k, m], channels.g[k, m])
    s = chan.snr(
        channels.r[k], channels.h[k, m], channels.g[k, m],
        theta, float(alloc.rho_sq_w[k]), noise_w,
    )
    return chan.rate_bps(s, bw_hz)


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
            events.append(TraceEvent(time_s=i * dcf.pilot_time_s, kind="pilot", user=i))
    if frame.t1_s > 0:
        events.append(TraceEvent(time_s=frame.t0_s, kind="compute"))

    sched_start = frame.t0_s + frame.t1_s
    sched_len = frame.scheduled_s if mode == "proposed" else frame.t2_s
    slots_available = int(math.floor(sched_len / dcf.data_slot_s + 1e-9))
    for k in sorted(scheduled):
        j = int(alloc.slot_of_user[k])
        if j >= slots_available:
            continue  # common transmission budget too short for this grant
        m = int(alloc.ris_of_user[k])
        ch = scenario.ris.subchannel_of_ris[m]
        t_slot = sched_start + j * dcf.data_slot_s
        rate = _user_rate_via(channels, alloc, k, m, radio.noise_w, radio.subchannel_bw_hz)
        delivered = dcf.data_slot_s * rate
        events.append(TraceEvent(time_s=t_slot, kind="slot-grant", user=k, channel=ch, ris=m))
        events.append(
            TraceEvent(time_s=t_slot, kind="data", user=k, channel=ch, ris=m, value=delivered)
        )
        served[k] = True
        bits[k] += delivered

    cont_start = sched_start + (frame.scheduled_s if mode != "scheme2" else 0.0)
    cont_budget = frame.contended_s if mode != "scheme2" else frame.t2_s
    n_r_measured = 0
    collisions = 0
    if contenders and cont_budget > 0:
        n_r_measured, collisions = _run_contention(
            scenario, channels, alloc, contenders, cont_start, cont_budget,
            rng, events, served, bits,
        )

    total = frame.total_s
    last = max((e.time_s for e in events), default=0.0)
    if total > last:
        events.append(TraceEvent(time_s=total, kind="idle"))
    events.sort(key=lambda e: e.time_s)

    trace = FrameTrace(
        mode=mode,
        frame=frame,
        events=events,
        served=served,
        bits=bits,
        class_of_user=cls,
        n_r_measured=n_r_measured,
        collisions=collisions,
    )
    s_s, s_c, s_o = measure_throughput(trace, frame)
    trace.throughput_scheduled_bps = s_s
    trace.throughput_contended_bps = s_c
    trace.throughput_overall_bps = s_o
    return trace


def _run_contention(
    scenario, channels, alloc, contenders, start_s, budget_s, rng, events, served, bits
):
    """Round-paced DCF with BS-gated grants; returns (rounds, collisions)."""
    radio, dcf = scenario.radio, scenario.dcf
    t_r = dcfmod.handshake_time(dcf)
    rts_s = dcf.rts_bytes * 8 / dcf.control_rate_bps
    cts_s = dcf.cts_bytes * 8 / dcf.control_rate_bps
    live_channels = scenario.ris.subchannels
    ris_on_channel = {
        ch: [m for m, c in enumerate(scenario.ris.subchannel_of_ris) if c == ch]
        for ch in live_channels
    }

    remaining = sorted(contenders)
    backoff = {
        k: BackoffState(dcf.w_min, dcf.w_max, dcf.max_backoff_stage) for k in remaining
    }
    schedule = dcfmod.ServiceSchedule(
        len(remaining), len(live_channels), dcf.w_min, dcf.max_backoff_stage
    )
    rounds_budget = int(math.floor(budget_s / t_r + 1e-9))

    best_channel_cache: dict = {}

    def pick_channel(k):
        if not scenario.csi_best_channel:
            return live_channels[int(rng.integers(0, len(live_channels)))]
        got = best_channel_cache.get(k)
        if got is None:
            best = (-1.0, live_channels[0])
            for ch in live_channels:
                _, rate = opt.distributed_ris_select(
                    channels, k, ris_on_channel[ch], float(alloc.rho_sq_w[k]),
                    radio.noise_w, radio.subchannel_bw_hz,
                )
                if rate > best[0]:
                    best = (rate, ch)
            got = best[1]
            best_channel_cache[k] = got
        return got

    rounds = 0
    collisions = 0
    while remaining and rounds < rounds_budget:
        t_round = start_s + rounds * t_r
        quota = schedule.advance()
        chosen = {k: pick_channel(k) for k in remaining}
        by_channel: dict = {}
        for k in remaining:
            by_channel.setdefault(chosen[k], []).append(k)
        counters = {k: int(rng.integers(0, backoff[k].cw)) for k in remaining}

        winners_hint = {}
        for ch in sorted(by_channel):
            winner, tied = resolve_backoff({k: counters[k] for k in by_channel[ch]})
            if tied:
                collisions += 1
                events.append(
                    TraceEvent(
                        time_s=t_round + dcf.difs_s, kind="collision",
                        channel=ch, value=float(counters[tied[0]]),
                    )
                )
                for k in tied:
                    backoff[k].double()
            winners_hint[ch] = winner

        occupied = sorted(by_channel)
        grant_order = [occupied[i] for i in rng.permutation(len(occupied))]
        grants = min(quota, len(occupied))
        if grants < quota:
            # model demanded more serves than there are contended channels;
            # hand the shortfall back so the credit re-demands it next round
            schedule.served -= quota - grants
        for ch in grant_order[:grants]:
            users_here = by_channel[ch]
            winner = winners_hint[ch]
            if winner is None:
                # post-collision re-draw inside the round settles on one user
                winner = users_here[int(rng.integers(0, len(users_here)))]
            m_star, rate = opt.distributed_ris_select(
                channels, winner, ris_on_channel[ch], float(alloc.rho_sq_w[winner]),
                radio.noise_w, radio.subchannel_bw_hz,
            )
            t_rts = t_round + dcf.difs_s
            t_cts = t_rts + rts_s + dcf.sifs_s
            t_data = t_cts + cts_s + dcf.sifs_s
            delivered = dcf.payload_time_s * rate
            events.append(
                TraceEvent(time_s=t_rts, kind="rts", user=winner, channel=ch,
                           ris=m_star, value=float(counters[winner]))
            )
            events.append(TraceEvent(time_s=t_cts, kind="cts", user=winner, channel=ch, ris=m_star))
            events.append(
                TraceEvent(time_s=t_data, kind="data", user=winner, channel=ch,
                           ris=m_star, value=delivered)
            )
            served[winner] = True
            bits[winner] += delivered
            remaining.remove(winner)
        # candidates that expired without a grant sent an RTS the BS ignored
        for ch in grant_order[grants:]:
            winner = winners_hint[ch]
            if winner is not None:
                events.append(
                    TraceEvent(time_s=t_round + dcf.difs_s, kind="rts", user=winner,
                               channel=ch, value=float(counters[winner]))
                )
        rounds += 1
    return rounds, collisions


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
            gains = np.array(
                [
                    chan.aligned_gain_magnitude(
                        channels.r[k], channels.h[k, alloc.ris_of_user[k]],
                        channels.g[k, alloc.ris_of_user[k]],
                    )
                    ** 2
                    / radio.noise_w
                    for k in static_ids
                ]
            )
            alloc.rho_sq_w[np.asarray(static_ids, dtype=int)] = opt.allocate_power(
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
