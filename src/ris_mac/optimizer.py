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
The power step's water level is closed-form too: it is read off the sorted
breakpoints floor_k + 1/c_k, with no search.

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
                need = fairness_floor(cascade, self.num_slots, self.data_slot_s)
                if self.beta / self.alpha < need - 1e-9:
                    raise ValueError("beta/alpha below the fairness feasibility floor")


def fairness_floor(cascade, num_slots: int, data_slot_s: float) -> float:
    """The least beta/alpha that gives the cascade's contended period room
    behind J = ``num_slots`` scheduled slots of ``data_slot_s``:
    required_beta_t2_s / (J * t)."""
    return cascade.required_beta_t2_s / (num_slots * data_slot_s)


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
    ris_of, slot_of = alloc.ris_of_user, alloc.slot_of_user
    num_ris = len(subchannel_of_ris)
    static = np.asarray(static_ids, dtype=int)
    s_ris, s_slot = ris_of[static], slot_of[static]
    off_ris = (s_ris < 0) | (s_ris >= num_ris)
    off_slot = (s_slot < 0) | (s_slot >= num_slots)
    for i in np.flatnonzero(off_ris | off_slot).tolist():
        k = static_ids[i]
        if off_ris[i]:
            bad.append(
                "static user %d holds RIS %d, not one of 0..%d" % (k, s_ris[i], num_ris - 1)
            )
        if off_slot[i]:
            bad.append("static user %d must hold exactly one data slot" % k)
    mobile = np.asarray(mobile_ids, dtype=int)
    m_ris = ris_of[mobile]
    for i in np.flatnonzero((m_ris != -1) & ((m_ris < 0) | (m_ris >= num_ris))).tolist():
        bad.append(
            "mobile user %d holds RIS %d, not -1 or one of 0..%d"
            % (mobile_ids[i], m_ris[i], num_ris - 1)
        )
    # the (subchannel, slot) pair of each static user on a surface as one
    # key, and the listed position of the pair's first holder (np.unique's
    # return_index is the first occurrence)
    on = np.flatnonzero(~off_ris)
    sub, slot = np.asarray(subchannel_of_ris, dtype=int)[s_ris[on]], s_slot[on]
    low = slot.min(initial=0)
    span = slot.max(initial=0) - low + 1
    _, first_of, pair = np.unique(sub * span + slot - low, return_index=True, return_inverse=True)
    first = first_of[pair]
    for j in np.flatnonzero(first != np.arange(on.size)).tolist():
        bad.append(
            "subchannel %d slot %d held by users %d and %d"
            % (sub[j], slot[j], static_ids[on[first[j]]], static_ids[on[j]])
        )
    if static.size:
        # water-filled powers may sum an ulp or two of P over it, and above
        # about 4.5 kW one ulp of P exceeds an absolute 1e-12 W
        total = float(alloc.rho_sq_w[static].sum())
        if total > p_max_w + POWER_TOL * max(1.0, p_max_w):
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


def allocate_power(
    gain_sq_over_noise: np.ndarray,
    p_max_w: float,
    rate_min_bps: float,
    bw_hz: float,
    user_ids=None,
) -> np.ndarray:
    """Water-filling with per-user rate floors under a sum-power budget.

    Maximizes sum log2(1 + c_k p_k) subject to sum p_k <= P_max and
    p_k >= floor_k.  The problem is separable and strictly concave, and the
    objective increases in every p_k, so the budget binds and the KKT point
    is p_k = max(floor_k, mu - 1/c_k) for one water level mu.

    The level comes in closed form from the sorted breakpoints
    b_k = floor_k + 1/c_k.  With the j smallest breakpoints below mu, the
    powers exceed the floors by j mu - (b_1 + ... + b_j), so the level that
    spends the headroom H = P_max - sum(floors) is
    mu_j = (H + b_1 + ... + b_j) / j.  In exact arithmetic the j with
    mu_j > b_j form a prefix, and the last one holds the level; when there
    is none, the floors spend the whole budget and the level is b_1.  A last
    step spreads the rounding slack over the users above their floors.
    """
    c = np.asarray(gain_sq_over_noise, dtype=float)
    n = c.size
    if n == 0:
        return np.zeros(0)
    # the bits of rate_floor_power (tests/oracles.py) from one IEEE division;
    # a gain <= 0 gets inf, warning-free
    need = 2.0 ** (rate_min_bps / bw_hz) - 1.0
    floors = np.divide(need, c, out=np.full(n, math.inf), where=c > 0)
    worst = int(np.argmax(floors))
    total = floors.sum()
    # a floor over the budget is >= 0, so the sum of the floors is over it too
    if total > p_max_w + POWER_TOL:
        user = worst if user_ids is None else user_ids[worst]
        if floors[worst] > p_max_w + POWER_TOL:
            raise InfeasibleError(
                "rate floor infeasible for user %s: needs %.6g W, budget %.6g W"
                % (user, floors[worst], p_max_w)
            )
        raise InfeasibleError(
            "rate floors sum to %.6g W, exceeding the %.6g W budget (binding user %s)"
            % (total, p_max_w, user)
        )

    inv_c = 1.0 / c
    b = np.sort(floors + inv_c)
    levels = (p_max_w - total + np.cumsum(b)) / np.arange(1, n + 1)
    j = int(np.count_nonzero(levels > b))
    level = levels[j - 1] if j else b[0]
    p = np.maximum(floors, level - inv_c)
    # remove the rounding slack so the budget holds exactly
    slack = p_max_w - p.sum()
    free = p > floors + POWER_TOL
    if not np.any(free):
        free = np.ones_like(p, dtype=bool)
    p[free] += slack / free.sum()
    return np.maximum(p, floors)


def static_power(channels: chan.ChannelRealization, static_ids, ris_of, radio) -> tuple:
    """(gains, powers) of the static users on their surfaces ``ris_of``:
    each gain is the aligned amplitude squared by ``np.float_power``, which
    equals Python's ``float ** 2``, over the noise power, and the powers are
    allocate_power's."""
    amps = channels.aligned_amplitude[static_ids, ris_of]
    gains = np.float_power(amps, 2.0) / radio.noise_w
    powers = allocate_power(
        gains, radio.p_max_w, radio.rate_min_bps, radio.subchannel_bw_hz, user_ids=static_ids
    )
    return gains, powers


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
    dropped lazily when they reach the top.  A heap is built when
    Bellman-Ford first reads its column pair, as the sorted list of the
    users then on a (one stable argsort of their losses, ties by id), and
    from then on takes a push for each user that moves onto a.  Its top is
    the least (loss, user) among the users on a, as if it had been built
    at the start and pushed every move, since entries of users that left
    are skipped.
    """
    m = len(load)
    heaps = [[None] * m for _ in range(m)]

    def cheapest(a, b):
        heap = heaps[a][b]
        if heap is None:
            on_a = np.flatnonzero(col_of == a)
            loss = rates[on_a, a] - rates[on_a, b]
            order = np.argsort(loss, kind="stable")
            heap = heaps[a][b] = list(zip(loss[order].tolist(), on_a[order].tolist()))
        while heap and col_of[heap[0][1]] != a:
            heapq.heappop(heap)
        return heap[0] if heap else None

    excess = sum(n - cap for n in load if n > cap)
    for _ in range(excess):
        # Bellman-Ford from every over-full column at once; paths kept simple
        dist = [0.0 if n > cap else math.inf for n in load]
        path = [[a] for a in range(m)]
        for _ in range(m - 1):
            for a in range(m):
                if dist[a] == math.inf:
                    continue
                for b in range(m):
                    if b in path[a]:
                        continue
                    hop = cheapest(a, b)
                    if hop is not None and dist[a] + hop[0] < dist[b]:
                        dist[b] = dist[a] + hop[0]
                        path[b] = path[a] + [b]
        sink = min((b for b in range(m) if load[b] < cap), key=lambda b: dist[b])
        hops = list(zip(path[sink], path[sink][1:]))
        movers = [cheapest(a, b)[1] for a, b in hops]
        for (_, b), u in zip(hops, movers):
            col_of[u] = b
            for c, heap in enumerate(heaps[b]):
                if heap is not None:
                    heapq.heappush(heap, (rates.item(u, b) - rates.item(u, c), u))
        load[path[sink][0]] -= 1
        load[sink] += 1


def centralized_ris_config(
    channels: chan.ChannelRealization,
    static_ids,
    rho_sq_w: np.ndarray,
    noise_w: float,
    bw_hz: float,
    num_slots: int,
    surface_lists,
) -> tuple:
    """Surface and slot assignment for the scheduled users at aligned phases.

    Phase alignment is closed-form per (user, RIS) pair and independent of
    the assignment, so one assignment over the aligned rates is the fixed
    point of the phase/assignment alternation.  Slots belong to subchannels:
    ``surface_lists`` holds the surfaces on each subchannel that carries one
    (RisInventory.surfaces_by_subchannel), a user takes its best surface on
    each by best_surfaces' rule, and the users are matched to (subchannel,
    slot) pairs over those rates.  Returns (ris_of, slot_of, objective).
    """
    best, rates = best_surfaces(channels, static_ids, surface_lists, rho_sq_w, noise_w, bw_hz)
    col_of, slot_of, objective = assign_ris_static(rates, num_slots)
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

    ``idle_ris`` lists the surface ids in ascending order.  Returns
    (ris_id, rate) of the best idle one at aligned phases, by
    best_surfaces' rule: a tie keeps the first, so it breaks to the lowest
    RIS id.
    """
    if len(idle_ris) == 0:
        raise InfeasibleError("no RIS available for user %d" % user_id)
    surface, rate = best_surfaces(channels, [user_id], [idle_ris], tx_power_w, noise_w, bw_hz)
    return int(surface[0, 0]), float(rate[0, 0])


def best_surfaces(
    channels: chan.ChannelRealization,
    user_ids,
    surface_lists,
    tx_power_w,
    noise_w: float,
    bw_hz: float,
) -> tuple:
    """Each listed user's best surface, and its rate, in each of
    ``surface_lists`` (ascending surface ids): two (users, lists) arrays.

    ``tx_power_w`` is a scalar or one entry per user.  The rule, by which
    static users, contenders and mobile users alike take their surface, runs
    surface by surface: the first surface holds unless a later one's rate
    exceeds the best so far by more than 1e-15.  The rates come from one
    channel.aligned_rate_matrix pass.
    """
    rates = chan.aligned_rate_matrix(channels, user_ids, tx_power_w, noise_w, bw_hz)
    surface = np.empty((rates.shape[0], len(surface_lists)), dtype=int)
    best = np.empty(surface.shape)
    for c, ms in enumerate(surface_lists):
        top_m, top = surface[:, c], best[:, c]
        top_m[:] = ms[0]
        top[:] = rates[:, ms[0]]
        for m in ms[1:]:
            better = rates[:, m] > top + 1e-15
            top_m[better] = m
            top[better] = rates[better, m]
    return surface, best


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
    static_ids: np.ndarray
    mobile_ids: np.ndarray
    throughput_scheduled_bps: float
    throughput_contended_bps: float
    throughput_overall_bps: float
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
    def period_bits(ids, airtime):
        # rates of the users with a surface, 0.0 for the rest, summed one
        # by one in the order listed
        surface = alloc.ris_of_user[ids]
        on = surface >= 0
        rate = np.zeros(len(ids))
        rate[on] = chan.aligned_rates(
            channels.aligned_amplitude[ids[on], surface[on]], alloc.rho_sq_w[ids[on]],
            radio.noise_w, radio.subchannel_bw_hz,
        )
        return sum(airtime * rate)

    sched_bits = period_bits(static_ids, dcf.data_slot_s)
    cont_bits = period_bits(mobile_ids, dcf.payload_time_s)
    return throughput_from_bits(frame, sched_bits, cont_bits)


def _frame_figures(scenario, channels, frame, alloc, static_ids, mobile_ids) -> dict:
    """The OptimizationResult fields that read the frame: S_s, S_c and S_o,
    and the complexity report."""
    radio, dcf, comp = scenario.radio, scenario.dcf, scenario.compute
    s_s, s_c, s_o = analytic_throughput(frame, alloc, channels, static_ids, mobile_ids, radio, dcf)
    return {
        "throughput_scheduled_bps": s_s,
        "throughput_contended_bps": s_c,
        "throughput_overall_bps": s_o,
        "complexity": complexity_report(
            len(static_ids), scenario.ris.num_ris, scenario.ris.elements_per_ris,
            comp.l1, comp.l2, comp.l3, scenario.population.num_existing,
            frame.total_s, comp.kappa_s_per_op,
        ),
    }


def joint_optimize(scenario: Scenario, channels: chan.ChannelRealization) -> OptimizationResult:
    """Full decomposition: frame timing on the fairness-optimal split, then
    alternating power and centralized assignment for the static users, then
    every mobile user's best surface from one best_surfaces pass."""
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
        rho_static = np.full(x, radio.p_max_w / x)
        prev_obj = -math.inf
        for sweep in range(1, comp.l1 + 1):
            sweeps = sweep
            ris_of, slot_of, _ = centralized_ris_config(
                channels, static_ids, rho_static, noise, bw,
                frame.num_slots, scenario.ris.surfaces_by_subchannel,
            )
            gains, rho_static = static_power(channels, static_ids, ris_of, radio)
            obj = float(np.sum(np.log2(1.0 + gains * rho_static)))
            if obj < prev_obj - 1e-9:
                break  # the floored power step lost ground: keep the previous iterate
            trace.append(obj)
            alloc.ris_of_user[static_ids] = ris_of
            alloc.slot_of_user[static_ids] = slot_of
            alloc.rho_sq_w[static_ids] = rho_static
            if obj - prev_obj < ALTERNATION_TOL:
                break
            prev_obj = obj

    surface, _ = best_surfaces(
        channels, mobile_ids, [range(scenario.ris.num_ris)], radio.tx_power_mobile_w, noise, bw
    )
    alloc.ris_of_user[mobile_ids] = surface[:, 0]

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
