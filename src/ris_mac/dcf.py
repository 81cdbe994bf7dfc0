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
payload.  service_rounds is the one implementation of the recursion and its
starvation guard: contention_cascade collects its rounds, at most
CASCADE_ROUND_CAP of them, and the frame engine draws them lazily, one per
contention round its budget holds, so a frame runs even where the closed
form would pass the cap.

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
import itertools
import math
from dataclasses import dataclass

from .scenario import DcfParams

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 200
CASCADE_ROUND_CAP = 10_000
STARVATION_GUARD_ROUNDS = 50
# absorbs float accumulation in C * sum(P) right at integer boundaries
FLOOR_EPS = 1e-9


class FixedPointError(RuntimeError):
    pass


class CascadeError(RuntimeError):
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
    rounds: tuple
    n_r: int
    t_r_s: float
    required_beta_t2_s: float
    starvation_guard_fired: bool = False


@functools.lru_cache(maxsize=1 << 14)
def round_params(contenders: int, num_channels: int, w_min: int, max_stage: int) -> tuple:
    """(tau, p, P_ch) of one round with the given remaining contenders.

    A pure function of its arguments, cached for the process: the closed
    form and every simulated frame step through the same round counts.
    """
    tau, p = solve_tau(contenders, w_min, max_stage)
    return tau, p, channel_success_prob(contenders, tau, num_channels)


def service_rounds(total_users: int, num_channels: int, w_min: int, max_stage: int):
    """The floor recursion, one round at a time: yields (cumulative_served,
    forced) per round until all ``total_users`` are served, with no round cap.

    A round with N remaining contenders adds C * P_ch(N) to the credit and
    serves floor(credit) less those already served.  A starvation guard
    force-serves one user per subchannel after 50 consecutive zero-increment
    rounds, since the floor can stall when Y*tau/C is tiny; ``forced`` flags
    those rounds as a model deviation.  contention_cascade collects the
    rounds into its rows; the frame engine draws them lazily, one per
    contention round its budget holds.
    """
    served = 0
    credit = 0.0
    zero_streak = 0
    while served < total_users:
        n = total_users - served
        credit += num_channels * round_params(n, num_channels, w_min, max_stage)[2]
        delta = min(max(math.floor(credit + FLOOR_EPS) - served, 0), n)
        forced = False
        if delta:
            zero_streak = 0
        else:
            zero_streak += 1
            if zero_streak >= STARVATION_GUARD_ROUNDS:
                delta = min(num_channels, n)
                forced = True
                zero_streak = 0
        served += delta
        yield served, forced


@functools.lru_cache(maxsize=128)
def contention_cascade(num_mobile: int, num_channels: int, dcf: DcfParams) -> ContentionSummary:
    """Run the service recursion until all mobile users are served once.

    N_r counts rounds with remaining contenders > 0; a literal reading of
    the stopping indicator (remaining >= 0) never terminates, so the
    recursion stops when the remaining count reaches zero, which is exactly
    the once-per-user fairness target.  A pure function of its arguments
    with a frozen result, cached for the process like round_params.
    """
    y = int(num_mobile)
    if y < 0:
        raise ValueError("num_mobile must be >= 0")
    c = int(num_channels)
    t_r = handshake_time(dcf)
    w, l = dcf.w_min, dcf.max_backoff_stage
    rows = []
    served = 0
    for served_after, forced in itertools.islice(service_rounds(y, c, w, l), CASCADE_ROUND_CAP):
        tau, p, p_ch = round_params(y - served, c, w, l)
        rows.append(ContentionRound(len(rows) + 1, y - served, tau, p, p_ch, served_after, forced))
        served = served_after
    if served < y:
        raise CascadeError(
            "non-terminating cascade: %d rounds, %d of %d served" % (len(rows), served, y)
        )
    return ContentionSummary(
        rounds=tuple(rows),
        n_r=len(rows),
        t_r_s=t_r,
        required_beta_t2_s=len(rows) * t_r,
        starvation_guard_fired=any(rd.forced for rd in rows),
    )


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
