"""Joint frame/power/assignment optimization.

The throughput maximization decomposes into: closed-form frame timing
(slot count, period durations, scheduled/contended split), a water-filling
power allocation over the static users, and an exact 0-1 assignment of
static users to (subchannel, slot) pairs.  Slots are a subchannel resource:
every subchannel that carries a surface has the same J slots, and a user on
a subchannel reflects through the best surface bonded to it.  The slots of
one subchannel are interchangeable, so the assignment is a transportation
problem with C_s sinks of capacity J, solved exactly by successive shortest
paths over the C_s subchannel nodes.  The assignment and power steps
alternate.  The assignment step ignores the rate floors, so the floored
power step can lower the sum rate; the alternation stops there and keeps
the previous iterate, which keeps the recorded objective non-decreasing.

Phases are not part of the plan: every element is co-phased with the
direct path, so a user's gain on a surface is the realization's aligned
amplitude |r| + sum |h||g|, and an allocation holds only each user's
surface, slot and power.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chan
from . import dcf as dcfmod
from .scenario import Scenario, classify_users

POWER_TOL = 1e-12
ALTERNATION_TOL = 1e-12


class InfeasibleError(RuntimeError):
    """A hard constraint cannot be met; message names the binding user."""


class DegenerateFrameError(ValueError):
    pass


@dataclass(frozen=True)
class FrameConfig:
    """Per-frame period durations and the scheduled/contended split."""

    t0_s: float
    t1_s: float
    t2_s: float
    alpha: float
    beta: float
    num_slots: int
    data_slot_s: float

    @property
    def total_s(self) -> float:
        return self.t0_s + self.t1_s + self.t2_s

    @property
    def scheduled_s(self) -> float:
        return self.alpha * self.t2_s

    @property
    def contended_s(self) -> float:
        return self.beta * self.t2_s

    def validate(self, cascade=None) -> None:
        """Check the split identities.  Slot capacity needs no check:
        J = ceil(X / C_s) by construction, with C_s the subchannels that
        carry a surface."""
        if abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise ValueError("alpha + beta must equal 1")
        if self.alpha > 0:
            if abs(self.scheduled_s - self.num_slots * self.data_slot_s) > 1e-9:
                raise ValueError("alpha*t2 must equal J*t")
            if cascade is not None:
                need = cascade.required_beta_t2_s / (self.num_slots * self.data_slot_s)
                if self.beta / self.alpha < need - 1e-9:
                    raise ValueError("beta/alpha below the fairness feasibility floor")


@dataclass
class AllocationState:
    """Surface, slot, and power of every user.

    ris_of_user[k] is -1 for unassigned; slot_of_user likewise (mobile users
    never hold scheduled slots).  Phases are not stored: every element is
    co-phased with the direct path, so a scheduled rate reads the
    realization's cached aligned amplitude on the assigned surface.
    """

    ris_of_user: np.ndarray  # (U,) int
    slot_of_user: np.ndarray  # (U,) int
    rho_sq_w: np.ndarray  # (U,) float transmit power


def empty_allocation(num_users: int) -> AllocationState:
    return AllocationState(
        ris_of_user=np.full(num_users, -1, dtype=int),
        slot_of_user=np.full(num_users, -1, dtype=int),
        rho_sq_w=np.zeros(num_users),
    )


def check_allocation(
    alloc: AllocationState,
    static_ids,
    mobile_ids,
    subchannel_of_ris,
    num_slots: int,
    p_max_w: float,
) -> list:
    """Standalone feasibility audit; returns a list of violations.

    Each user holds one int surface index, so "at most one RIS" holds by
    construction; what can go wrong is an index outside 0..M-1 (static
    users must hold a surface, mobile users may hold none, -1), a slot
    outside 0..J-1, or two static users on one (subchannel, slot) pair,
    which also bounds every subchannel's load by J.
    """
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
        if total > p_max_w + 1e-12:
            bad.append("static power budget exceeded: %.6g > %.6g" % (total, p_max_w))
    return bad


def optimal_frame_timing(
    num_static: int,
    num_mobile: int,
    num_channels: int,
    dcf,
    t1_s: float,
    num_existing=None,
    cascade=None,
) -> FrameConfig:
    """Closed-form frame timing.

    num_channels is C_s, the subchannels that carry a surface (scenario
    RisInventory.subchannels): only those carry slots and contention.
    J = ceil(X/C_s) (the slot capacity bound J*C_s >= X forces rounding up
    for non-divisible X), t0 = K * t_p, t2 = J*t + N_r * t_r, and the split
    alpha = J*t / t2, beta = N_r*t_r / t2 sits exactly on the fairness
    feasibility boundary.  X = 0 degenerates to the pure contended mode,
    Y = 0 to the pure scheduled mode.
    """
    x, y, c = int(num_static), int(num_mobile), int(num_channels)
    if x == 0 and y == 0:
        raise DegenerateFrameError("no users to serve: X = 0 and Y = 0")
    if c < 1:
        raise ValueError("num_channels must be >= 1")
    k_existing = (x + y) if num_existing is None else int(num_existing)
    j_star = -(-x // c)  # ceil
    if cascade is None:
        cascade = dcfmod.contention_cascade(y, c, dcf)
    sched = j_star * dcf.data_slot_s
    cont = cascade.required_beta_t2_s
    t2 = sched + cont
    alpha = sched / t2
    beta = 1.0 - alpha  # exact complement so alpha + beta == 1 bitwise
    return FrameConfig(
        t0_s=k_existing * dcf.pilot_time_s,
        t1_s=float(t1_s),
        t2_s=t2,
        alpha=alpha,
        beta=beta,
        num_slots=j_star,
        data_slot_s=dcf.data_slot_s,
    )


def rate_floor_power(gain_sq_over_noise: float, rate_min_bps: float, bw_hz: float) -> float:
    """Smallest transmit power meeting the per-user rate floor."""
    if gain_sq_over_noise <= 0:
        return math.inf
    return (2.0 ** (rate_min_bps / bw_hz) - 1.0) / gain_sq_over_noise


def allocate_power(
    gain_sq_over_noise: np.ndarray,
    p_max_w: float,
    rate_min_bps: float,
    bw_hz: float,
    user_ids=None,
) -> np.ndarray:
    """Water-filling with per-user rate floors under a sum-power budget.

    Maximizes sum log2(1 + c_k p_k) subject to sum p_k <= P_max and
    p_k >= floor_k.  The problem is separable and strictly concave, so the
    KKT point is p_k(mu) = max(floor_k, mu - 1/c_k) with the water level mu
    found by bisection on the (monotone) budget constraint; the objective is
    increasing, so the budget binds.
    """
    c = np.asarray(gain_sq_over_noise, dtype=float)
    n = c.size
    if n == 0:
        return np.zeros(0)
    ids = list(user_ids) if user_ids is not None else list(range(n))
    floors = np.array([rate_floor_power(ck, rate_min_bps, bw_hz) for ck in c])
    worst = int(np.argmax(floors))
    if floors[worst] > p_max_w + POWER_TOL:
        raise InfeasibleError(
            "rate floor infeasible for user %s: needs %.6g W, budget %.6g W"
            % (ids[worst], floors[worst], p_max_w)
        )
    if floors.sum() > p_max_w + POWER_TOL:
        raise InfeasibleError(
            "rate floors sum to %.6g W, exceeding the %.6g W budget (binding user %s)"
            % (floors.sum(), p_max_w, ids[worst])
        )

    inv_c = 1.0 / c

    def spend(mu):
        return np.maximum(floors, mu - inv_c).sum()

    lo = 0.0
    hi = p_max_w + inv_c.max()
    while spend(hi) < p_max_w:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spend(mid) > p_max_w:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16 * max(1.0, p_max_w):
            break
    p = np.maximum(floors, 0.5 * (lo + hi) - inv_c)
    # remove bisection slack so the budget holds exactly
    slack = p_max_w - p.sum()
    free = p > floors + POWER_TOL
    if not np.any(free):
        free = np.ones_like(p, dtype=bool)
    p[free] += slack / free.sum()
    return np.maximum(p, floors)


def assign_ris_static(rate_matrix: np.ndarray, num_slots: int) -> tuple:
    """Exact 0-1 assignment of static users to (subchannel, slot) pairs.

    Column c of rate_matrix is the c-th subchannel that carries a surface,
    and each column holds at most J users: a transportation problem with
    C_s sinks.  Every user starts on its best column (lowest index on
    ties).  No user gains by moving, so this is an optimal pseudo-flow, and
    successive shortest paths repair it: while a column holds more than J
    users, one user per hop moves along the cheapest path from an over-full
    column to one with room.  Hop a -> b costs the least loss
    R[u, a] - R[u, b] among the users now on a; moved users make costs
    negative, so paths come from Bellman-Ford over the C_s column nodes.
    Each step keeps the pseudo-flow optimal, so the result is an exact
    optimum.  Slots are numbered per column in user-id order.  Returns
    (column_of_user, slot_of_user, objective).
    """
    rates = np.asarray(rate_matrix, dtype=float)
    x, m = rates.shape
    if x == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), 0.0
    if x > m * num_slots:
        raise InfeasibleError(
            "assignment infeasible: %d static users exceed J*C_s = %d slots"
            % (x, m * num_slots)
        )
    col_of = rates.argmax(axis=1)
    load = np.bincount(col_of, minlength=m)
    if load.max() > num_slots:
        _repair_overfull(rates, col_of, load.tolist(), num_slots)
        load = np.bincount(col_of, minlength=m)
    # slot labels: rank of each user within its column, in user-id order
    order = np.argsort(col_of, kind="stable")
    first = np.concatenate(([0], np.cumsum(load)[:-1]))
    slot_of = np.empty(x, dtype=int)
    slot_of[order] = np.arange(x) - first[col_of[order]]
    objective = float(rates[np.arange(x), col_of].sum())
    return col_of, slot_of, objective


def _repair_overfull(rates: np.ndarray, col_of: np.ndarray, load: list, cap: int) -> None:
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


def centralized_ris_config(
    channels: chan.ChannelRealization,
    static_ids,
    rho_sq_w: np.ndarray,
    noise_w: float,
    bw_hz: float,
    num_slots: int,
    subchannel_of_ris,
) -> tuple:
    """Surface and slot assignment for the scheduled users at aligned phases.

    Phase alignment is closed-form per (user, RIS) pair and independent of
    the assignment, so one assignment over the aligned rates is the fixed
    point of the phase/assignment alternation.  Slots belong to subchannels:
    on each subchannel that carries a surface a user takes its best bonded
    surface (lowest id on ties), and the users are matched to (subchannel,
    slot) pairs over those rates.  Returns (ris_of, slot_of, objective).
    """
    rates = chan.aligned_rate_matrix(channels, static_ids, rho_sq_w, noise_w, bw_hz)
    sub_of = np.asarray(subchannel_of_ris)
    surfaces = [np.flatnonzero(sub_of == ch) for ch in sorted(set(sub_of.tolist()))]
    # (X, C_s): each user's best surface on each subchannel that carries one
    best = np.stack([ms[rates[:, ms].argmax(axis=1)] for ms in surfaces], axis=1)
    col_of, slot_of, objective = assign_ris_static(
        np.take_along_axis(rates, best, axis=1), num_slots
    )
    return best[np.arange(len(col_of)), col_of], slot_of, objective


def distributed_ris_select(
    channels: chan.ChannelRealization,
    user_id: int,
    idle_ris,
    tx_power_w: float,
    noise_w: float,
    bw_hz: float,
) -> tuple:
    """Best idle surface for one mobile user.

    ``idle_ris`` lists the surface ids in ascending order.  Evaluates the
    aligned-phase rate on each of them and returns (ris_id, rate); a tie
    keeps the first, so it breaks to the lowest RIS id.
    """
    if len(idle_ris) == 0:
        raise InfeasibleError("no RIS available for user %d" % user_id)
    amp = channels.aligned_amplitude[user_id]
    best_m = -1
    best_rate = -1.0
    for m in idle_ris:
        rate = chan.rate_bps(chan.amplitude_snr(amp[m], tx_power_w, noise_w), bw_hz)
        if rate > best_rate + 1e-15:
            best_rate = rate
            best_m = m
    return best_m, best_rate


def complexity_ops(
    num_users_scheduled: int,
    num_ris: int,
    num_elements: int,
    num_existing: int,
    l1: int,
) -> float:
    """Operation count of the frame's centralized computation,
    K + X^3 L1 + M^2 N^2 L1 + X^2 M^2 L1 with X the scheduled-user count.
    The X^3 term is the paper's model of the computing period t1, not the
    cost of this package's assignment solver."""
    x, m, n = num_users_scheduled, num_ris, num_elements
    return float(num_existing + (x**3 + m**2 * n**2 + x**2 * m**2) * l1)


@dataclass(frozen=True)
class ComplexityReport:
    mac_ops: float
    centralized_ops: float
    distributed_ops: float
    delta_ops: float
    improvement_ratio: float
    frame_time_s: float


def complexity_report(
    num_static: int,
    num_ris: int,
    num_elements: int,
    l1: int,
    l2: int,
    l3: int,
    num_existing: int,
    frame_time_s: float,
    kappa_s_per_op: float,
) -> ComplexityReport:
    """Complexity counters plus the relative speedup of scheduling only the
    static users instead of all existing ones.

    delta_ops = K^3 L1 - X^3 L1 is the dominant-term saving; the improvement
    ratio (T + delta)/T expresses it against the frame duration after
    converting operations to seconds with the computing-time coefficient.
    """
    x, m, n = num_static, num_ris, num_elements
    mac = complexity_ops(x, m, n, num_existing, l1)
    cent = float((m**2 * n**2 + x**2 * m**2) * l2)
    dist = float((m**2 * n**2 + m**2) * l3)
    delta = float((num_existing**3 - x**3) * l1)
    ratio = (frame_time_s + delta * kappa_s_per_op) / frame_time_s if frame_time_s > 0 else math.inf
    return ComplexityReport(
        mac_ops=mac,
        centralized_ops=cent,
        distributed_ops=dist,
        delta_ops=delta,
        improvement_ratio=ratio,
        frame_time_s=frame_time_s,
    )


@dataclass
class OptimizationResult:
    frame: FrameConfig
    allocation: AllocationState
    static_ids: list
    mobile_ids: list
    throughput_scheduled_bps: float
    throughput_contended_bps: float
    throughput_overall_bps: float
    throughput_overall_onefactor_bps: float
    onefactor_mismatch_rel: float
    objective_trace: list
    cascade: dcfmod.ContentionSummary
    complexity: ComplexityReport
    sweeps: int


def throughput_from_bits(frame: FrameConfig, sched_bits: float, cont_bits: float) -> tuple:
    """(S_s, S_c, S_o) from the bits of each period: S_s = bits/(alpha*t2),
    S_c = bits/(beta*t2), S_o = t2/(t0+t1+t2) * (alpha*S_s + beta*S_c)."""
    s_s = sched_bits / frame.scheduled_s if frame.scheduled_s > 0 else 0.0
    s_c = cont_bits / frame.contended_s if frame.contended_s > 0 else 0.0
    s_o = frame.t2_s / frame.total_s * (frame.alpha * s_s + frame.beta * s_c)
    return s_s, s_c, s_o


def analytic_throughput(
    frame: FrameConfig,
    alloc: AllocationState,
    channels: chan.ChannelRealization,
    static_ids,
    mobile_ids,
    radio,
    dcf,
) -> tuple:
    """(S_s, S_c, S_o) from the per-user aligned rates and the frame split.

    S_s sums t * rate over scheduled users normalized by alpha*t2; S_c sums
    t_d * rate over contended users normalized by beta*t2; the overall
    figure weights both by t2/(t0+t1+t2).
    """
    bw = radio.subchannel_bw_hz
    noise = radio.noise_w
    amp = channels.aligned_amplitude

    def user_rate(k):
        m = alloc.ris_of_user[k]
        if m < 0:
            return 0.0
        return chan.rate_bps(chan.amplitude_snr(amp[k, m], alloc.rho_sq_w[k], noise), bw)

    sched_bits = sum(dcf.data_slot_s * user_rate(k) for k in static_ids)
    cont_bits = sum(dcf.payload_time_s * user_rate(k) for k in mobile_ids)
    return throughput_from_bits(frame, sched_bits, cont_bits)


def onefactor_throughput(
    frame: FrameConfig,
    alloc: AllocationState,
    channels: chan.ChannelRealization,
    static_ids,
    mobile_ids,
    radio,
    dcf,
) -> float:
    """Single-prefactor overall-throughput form
    B(t+t_d)/(C*(t0+t1+t2)) * sum of all assigned log terms; blends the two
    slot durations into one factor, so it generally differs from the exact
    composition and is reported alongside it."""
    noise = radio.noise_w
    amp = channels.aligned_amplitude
    total = 0.0
    for k in list(static_ids) + list(mobile_ids):
        m = alloc.ris_of_user[k]
        if m < 0:
            continue
        total += math.log2(1.0 + chan.amplitude_snr(amp[k, m], alloc.rho_sq_w[k], noise))
    pref = (
        radio.bandwidth_total_hz
        * (dcf.data_slot_s + dcf.payload_time_s)
        / (radio.num_subchannels * frame.total_s)
    )
    return pref * total


def _frame_figures(scenario, channels, frame, alloc, static_ids, mobile_ids) -> dict:
    """The OptimizationResult fields that read the frame: S_s, S_c and S_o,
    the one-factor form and its mismatch, and the complexity report."""
    radio, dcf, comp = scenario.radio, scenario.dcf, scenario.compute
    s_s, s_c, s_o = analytic_throughput(frame, alloc, channels, static_ids, mobile_ids, radio, dcf)
    s_one = onefactor_throughput(frame, alloc, channels, static_ids, mobile_ids, radio, dcf)
    return {
        "throughput_scheduled_bps": s_s,
        "throughput_contended_bps": s_c,
        "throughput_overall_bps": s_o,
        "throughput_overall_onefactor_bps": s_one,
        "onefactor_mismatch_rel": abs(s_one - s_o) / s_o if s_o > 0 else math.inf,
        "complexity": complexity_report(
            len(static_ids), scenario.ris.num_ris, scenario.ris.elements_per_ris,
            comp.l1, comp.l2, comp.l3, scenario.population.num_existing,
            frame.total_s, comp.kappa_s_per_op,
        ),
    }


def joint_optimize(scenario: Scenario, channels: chan.ChannelRealization) -> OptimizationResult:
    """Full decomposition: frame timing on the fairness-optimal split, then
    alternating power and centralized assignment for the static users, then
    distributed per-mobile RIS selection."""
    radio, dcf, comp = scenario.radio, scenario.dcf, scenario.compute
    noise, bw = radio.noise_w, radio.subchannel_bw_hz
    static_ids, mobile_ids = classify_users(scenario.population)
    x, y = len(static_ids), len(mobile_ids)
    c = len(scenario.ris.subchannels)
    cascade = dcfmod.contention_cascade(y, c, dcf)
    ops = complexity_ops(x, scenario.ris.num_ris, scenario.ris.elements_per_ris,
                         scenario.population.num_existing, comp.l1)
    frame = optimal_frame_timing(
        x, y, c, dcf, t1_s=comp.kappa_s_per_op * ops,
        num_existing=scenario.population.num_existing, cascade=cascade,
    )
    frame.validate(cascade=cascade if x else None)

    n_users = scenario.population.num_total
    alloc = empty_allocation(n_users)
    alloc.rho_sq_w[mobile_ids] = radio.tx_power_mobile_w

    trace = []
    sweeps = 0
    if x:
        sidx = np.asarray(static_ids, dtype=int)
        rho_static = np.full(x, radio.p_max_w / x)
        prev_obj = -math.inf
        for sweep in range(1, comp.l1 + 1):
            sweeps = sweep
            ris_of, slot_of, _ = centralized_ris_config(
                channels, static_ids, rho_static, noise, bw,
                frame.num_slots, scenario.ris.subchannel_of_ris,
            )
            gains = np.array(
                [a**2 / noise for a in channels.aligned_amplitude[sidx, ris_of].tolist()]
            )
            rho_static = allocate_power(
                gains, radio.p_max_w, radio.rate_min_bps, bw, user_ids=static_ids,
            )
            obj = float(np.sum(np.log2(1.0 + gains * rho_static)))
            if obj < prev_obj - 1e-9:
                break  # the floored power step lost ground: keep the previous iterate
            trace.append(obj)
            alloc.ris_of_user[sidx] = ris_of
            alloc.slot_of_user[sidx] = slot_of
            alloc.rho_sq_w[sidx] = rho_static
            if obj - prev_obj < ALTERNATION_TOL:
                break
            prev_obj = obj

    p_mobile = radio.tx_power_mobile_w
    for k in mobile_ids:
        alloc.ris_of_user[k], _ = distributed_ris_select(
            channels, k, range(scenario.ris.num_ris), p_mobile, noise, bw
        )

    bad = check_allocation(
        alloc, static_ids, mobile_ids, scenario.ris.subchannel_of_ris,
        frame.num_slots, radio.p_max_w,
    )
    if bad:
        raise RuntimeError("allocation failed feasibility audit: %s" % "; ".join(bad))

    return OptimizationResult(
        frame=frame,
        allocation=alloc,
        static_ids=static_ids,
        mobile_ids=mobile_ids,
        objective_trace=trace,
        cascade=cascade,
        sweeps=sweeps,
        **_frame_figures(scenario, channels, frame, alloc, static_ids, mobile_ids),
    )


def retime(
    plan: OptimizationResult,
    scenario: Scenario,
    channels: chan.ChannelRealization,
    beta_alpha: float,
) -> OptimizationResult:
    """``plan`` on the split beta/alpha = ``beta_alpha``, alpha*t2 = J*t held.

    The allocation reads only the slot count J, which the split leaves
    alone, so a split sweep plans once and re-times: only the frame and the
    fields that read it change.  The plan needs a scheduled period (X > 0).
    """
    sched = plan.frame.num_slots * plan.frame.data_slot_s
    t2 = sched * (1.0 + beta_alpha)
    frame = replace(plan.frame, t2_s=t2, alpha=sched / t2, beta=1.0 - sched / t2)
    return replace(
        plan,
        frame=frame,
        **_frame_figures(
            scenario, channels, frame, plan.allocation, plan.static_ids, plan.mobile_ids
        ),
    )
