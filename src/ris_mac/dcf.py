"""Closed-form contention analysis for the contended transmission period.

Per contention round i with N_i remaining mobile users:

  tau_i  = 2(1-2p) / ((1-2p)(W+1) + p W (1-(2p)^l))      backoff fixed point
  p_i    = 1 - (1-tau_i)^(N_i - 1)
  P_iC   = sum_V (1-tau)^(V-1) C(N_i,V) V tau (1-tau)^(V-1)
               * (1/C)^V (1-1/C)^(N_i-V)                  per-channel success
         = N_i tau / C * (1 - tau(2-tau)/C)^(N_i-1)        (closed form)
  served = floor(C * sum_{l<=i} P_lC)                     cumulative service

The round recursion runs until every one of the Y mobile users has been
served exactly once; the round count N_r sizes the contended period as
N_r * t_r, with t_r the airtime of one successful RTS/CTS handshake plus
payload.  ServiceSchedule is the one implementation of the recursion and
its starvation guard, which ends it within N_r <= 50 Y rounds, and
service_schedule its one cache: contention_cascade and every frame read the
same schedule per (Y, C, w_min, l) for the process.

The closed form is the sum read as a derivative: with x = (1-tau)^2 and
q = 1/C the terms are tau * C(N,V) V x^(V-1) q^V (1-q)^(N-V), which is tau
times d/dx of the binomial generating function (q x + 1 - q)^N, i.e.
tau N q (1 - q (1 - x))^(N-1), and 1 - x = tau (2 - tau).

Note the idle-probability weight uses the printed exponent V-1.  Read as a
per-slot idle probability P_e = (1-tau)^(V-1), it makes the collision term
1 - P_e - P_s negative for a single contender (P_e = 1); the success
probability above keeps the printed exponent rather than silently
correcting it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

from .scenario import DcfParams

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 200
STARVATION_GUARD_ROUNDS = 50
# absorbs float accumulation in C * sum(P) right at integer boundaries
FLOOR_EPS = 1e-9


class FixedPointError(RuntimeError):
    pass


def _tau_of_p(p: float, w: int, l: int) -> float:
    """Transmit probability as a function of the collision probability.

    The expression is 0/0 at p = 1/2; the removable singularity evaluates
    to 4 / (2(W+1) + W*l).
    """
    one_minus_2p = 1.0 - 2.0 * p
    if abs(one_minus_2p) < 1e-9:
        return 4.0 / (2.0 * (w + 1) + w * l)
    denom = one_minus_2p * (w + 1) + p * w * (1.0 - (2.0 * p) ** l)
    return 2.0 * one_minus_2p / denom


def solve_tau(contenders: int, w_min: int, max_stage: int) -> tuple:
    """Joint (tau, p) solution of the backoff/collision fixed point.

    Bisects the composed scalar map g(p) = [1 - (1-tau(p))^(V-1)] - p, which
    is continuous and strictly decreasing on [0, 1), so the root is unique
    and bracketing never fails (plain Picard iteration can oscillate here).
    """
    v = int(contenders)
    if v < 1:
        raise ValueError("contenders must be >= 1")
    if v == 1:
        # no competitor: p = 0 exactly and tau collapses to 2/(W+1)
        return 2.0 / (w_min + 1), 0.0

    def residual(p):
        tau = _tau_of_p(p, w_min, max_stage)
        return (1.0 - (1.0 - tau) ** (v - 1)) - p

    lo, hi = 0.0, 1.0 - 1e-15
    f_lo = residual(lo)
    if f_lo <= 0.0:
        p = lo
    else:
        for _ in range(FIXED_POINT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < FIXED_POINT_TOL:
                break
        p = 0.5 * (lo + hi)
    tau = _tau_of_p(p, w_min, max_stage)
    res_p = abs((1.0 - (1.0 - tau) ** (v - 1)) - p)
    res_tau = abs(tau - _tau_of_p(p, w_min, max_stage))
    if max(res_p, res_tau) > 1e-10:
        raise FixedPointError(
            "fixed point did not converge: residual %.3e after %d iterations"
            % (max(res_p, res_tau), FIXED_POINT_MAX_ITER)
        )
    return tau, p


def channel_success_prob(contenders: int, tau: float, num_channels: int) -> float:
    """Probability of a successful transmission on a given channel in one
    round, with the idle-probability sensing weight applied per term.

    The paper sums over V, the (binomial) number of the N_i contenders that
    picked this channel: (1-tau)^(V-1) * C(N_i,V) * V tau (1-tau)^(V-1)
    * (1/C)^V (1-1/C)^(N_i-V).  That sum is tau times the derivative of the
    binomial generating function (q x + 1 - q)^N_i at x = (1-tau)^2, q = 1/C,
    so it equals N_i tau / C * (1 - tau(2-tau)/C)^(N_i-1), which this
    returns.  C = 1 gives N_i tau (1-tau)^(2(N_i-1)), the V = N_i term alone.
    """
    n = int(contenders)
    c = int(num_channels)
    if n < 1:
        raise ValueError("contenders must be >= 1")
    if c < 1:
        raise ValueError("num_channels must be >= 1")
    return float(n * tau / c * (1.0 - tau * (2.0 - tau) / c) ** (n - 1))


@dataclass(frozen=True)
class ContentionRound:
    round_index: int
    contenders: int
    tau: float
    collision_prob: float
    success_prob_channel: float
    cumulative_served: int
    forced: bool = False


@dataclass(frozen=True)
class ContentionSummary:
    """The cascade's service schedule (run to its end) and t_r.  Every
    figure is computed from the schedule; the rows are built only when
    ``rounds`` is read (dcf-table and the tests read them)."""

    schedule: ServiceSchedule
    t_r_s: float

    @property
    def n_r(self) -> int:
        return len(self.schedule.increments)

    @property
    def required_beta_t2_s(self) -> float:
        return len(self.schedule.increments) * self.t_r_s

    @property
    def starvation_guard_fired(self) -> bool:
        return bool(self.schedule.forced)

    @property
    def guard_served(self) -> int:
        """Users served by forced rounds."""
        increments = self.schedule.increments
        return sum(increments[i] for i in self.schedule.forced)

    @property
    def rounds(self) -> tuple:
        """One ContentionRound per round, built on each read."""
        y, c, w, l = self.schedule.key
        forced = set(self.schedule.forced)
        rows = []
        served = 0
        for i, delta in enumerate(self.schedule.increments):
            tau, p, p_ch = round_params(y - served, c, w, l)
            before, served = served, served + delta
            rows.append(ContentionRound(i + 1, y - before, tau, p, p_ch, served, i in forced))
        return tuple(rows)


@functools.lru_cache(maxsize=1 << 14)
def round_params(contenders: int, num_channels: int, w_min: int, max_stage: int) -> tuple:
    """(tau, p, P_ch) of one round with the given remaining contenders.

    A pure function of its arguments, cached for the process: the closed
    form and every simulated frame step through the same round counts.
    """
    tau, p = solve_tau(contenders, w_min, max_stage)
    return tau, p, channel_success_prob(contenders, tau, num_channels)


class ServiceSchedule:
    """The floor recursion of key (Y, C, w_min, l), stepped so far: each
    round's serves in ``increments`` (4 bytes a round), and the indices of
    the guard's rounds, a model deviation, in ``forced``.

    A round with N remaining contenders adds C * P_ch(N) to the credit and
    serves floor(credit) less those already served.  The floor can stall
    when Y*tau/C is tiny, so after 50 consecutive zero-increment rounds a
    starvation guard force-serves one user per subchannel: at most 50 Y
    rounds run.  ``through(rounds)`` steps only as far as a reader asks, and
    a longer reader resumes where the last one stopped.  A round's state
    changes only after its round_params call returns, so a step that raises
    keeps every round before it.
    """

    def __init__(self, total_users: int, num_channels: int, w_min: int, max_stage: int):
        if num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        self.key = (total_users, num_channels, w_min, max_stage)
        self.increments = array("I")
        self.forced = array("I")
        self._served = 0
        self._credit = 0.0
        self._zero_streak = 0

    def through(self, rounds=None) -> array:
        """The increments, holding at least the first ``rounds`` rounds
        (every round when None), or all of them once the recursion ended."""
        total, c, w, l = self.key
        increments, forced = self.increments, self.forced
        served, credit, streak = self._served, self._credit, self._zero_streak
        left = -1 if rounds is None else max(rounds - len(increments), 0)  # -1: no limit
        try:
            while served < total and left:
                left -= 1
                n = total - served
                credit += c * round_params(n, c, w, l)[2]
                delta = min(math.floor(credit + FLOOR_EPS) - served, n)
                if delta > 0:
                    streak = 0
                else:
                    delta = 0
                    streak += 1
                    if streak >= STARVATION_GUARD_ROUNDS:
                        delta = min(c, n)
                        forced.append(len(increments))
                        streak = 0
                increments.append(delta)
                served += delta
        finally:
            # the rounds appended so far are whole: the next call resumes after them
            self._served, self._credit, self._zero_streak = served, credit, streak
        return increments


@functools.lru_cache(maxsize=None)
def service_schedule(total_users: int, num_channels: int, w_min: int, max_stage: int):
    """The one ServiceSchedule per (Y, C, w_min, l) for the process, shared by
    contention_cascade and every frame that paces to it, so each recursion
    is stepped once.  It is the one cache of the recursion, and it never
    evicts a schedule (4 bytes a round stepped): an evicted one would be
    stepped again by its next reader."""
    return ServiceSchedule(total_users, num_channels, w_min, max_stage)


def contention_cascade(num_mobile: int, num_channels: int, dcf: DcfParams) -> ContentionSummary:
    """Run the service recursion until all mobile users are served once.

    N_r counts rounds with remaining contenders > 0; a literal reading of
    the stopping indicator (remaining >= 0) never terminates, so the
    recursion stops when the remaining count reaches zero, which is exactly
    the once-per-user fairness target.  The summary only wraps the cached
    service_schedule, so a repeated call steps nothing.
    """
    y = int(num_mobile)
    if y < 0:
        raise ValueError("num_mobile must be >= 0")
    schedule = service_schedule(y, int(num_channels), dcf.w_min, dcf.max_backoff_stage)
    schedule.through()
    return ContentionSummary(schedule=schedule, t_r_s=handshake_time(dcf))


def handshake_time(dcf: DcfParams) -> float:
    """Airtime of one successful contention cycle:
    RTS + CTS + payload + 2*SIFS + DIFS + 2*delta, control frames at the
    configured basic rate."""
    rts = dcf.rts_bytes * 8 / dcf.control_rate_bps
    cts = dcf.cts_bytes * 8 / dcf.control_rate_bps
    return (
        rts
        + cts
        + dcf.payload_time_s
        + 2.0 * dcf.sifs_s
        + dcf.difs_s
        + 2.0 * dcf.prop_delay_s
    )
