"""The round loop of the contention engine as it stood before the one-sort
resolution, kept as the reference that test_contention_oracle compares
the engine against.  Its additions since are two: the fifth return value,
the contended bits summed in grant order, which run_frame reads, and the
seed in place of the Generator at position 6, since run_frame passes the
frame's seed and the loop builds its fresh Generator itself.  Its
deliberate edits are two.  The pacing: a round's quota is the cumulative
service of a fresh, uncached dcf.ServiceSchedule less the users granted so
far, so serves the recursion asked for beyond the occupied channels carry
over to the next round (they used to be handed back into a schedule
object).  The draws: they follow the engine's documented rule in place of
numpy's Generator calls.  The loop reads its own words one at a time, the
high 32 bits of each ``random_raw`` output, and a draw below b is
(w * b) >> 32.
Each round draws one v per contender, below its window times C_s, whose
quotient by C_s is the counter and whose remainder is the pick (under
csi_best_channel, below the window alone); the grant order is a
Fisher-Yates shuffle by the same rule, and a collided channel's re-draw is
one draw below its contender count.

Each occupied subchannel is resolved on its own: ``flatnonzero`` finds its
contenders, ``resolve_backoff`` its unique minimum or its ties, and the
windows are recomputed from the stages every round.  Do not edit the bodies
below to follow the engine; they are the specification it must reproduce.
"""

import itertools
import math

import numpy as np

from ris_mac import dcf as dcfmod
from ris_mac import optimizer as opt
from ris_mac.simulator import TraceEvent


def contention_windows(stage: np.ndarray, dcf) -> np.ndarray:
    """Binary exponential backoff: cw = min(w_min * 2^stage, w_max) per contender."""
    return np.minimum(dcf.w_min * 2**stage, dcf.w_max)


def next_stage(stage: np.ndarray, dcf) -> np.ndarray:
    """Backoff stages after a collision: one up, capped at max_backoff_stage."""
    return np.minimum(stage + 1, dcf.max_backoff_stage)


def below(rng, b: int) -> int:
    """A draw below ``b`` by the engine's documented rule: the next word w,
    the high 32 bits of one ``random_raw`` output, gives (w * b) >> 32."""
    return (int(rng.bit_generator.random_raw()) >> 32) * b >> 32


def permutation(rng, k: int) -> np.ndarray:
    """A Fisher-Yates shuffle of range(k) by the same rule: position
    i = k-1 .. 1 swaps with a draw below i + 1."""
    order = list(range(k))
    for i in range(k - 1, 0, -1):
        j = below(rng, i + 1)
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=int)


def resolve_backoff(counters: np.ndarray) -> tuple:
    """First-expiry resolution on one channel's (non-empty) counters.

    Returns (winner, tied) as indices into ``counters``: the unique holder
    of the minimum counter wins and nothing is tied; a tie means those
    users' RTS frames collide, there is no winner (None), and ``tied``
    holds their indices in ascending order.
    """
    tied = np.flatnonzero(counters == counters.min())
    if tied.size == 1:
        return int(tied[0]), tied[:0]
    return None, tied


def _run_contention(
    scenario, channels, alloc, contenders, start_s, budget_s, seed, events, served, bits
):
    """Round-paced DCF with BS-gated grants, drawing from a fresh PCG64
    Generator of ``seed``.

    Returns (rounds, collisions, grant_shortfall, contenders_left, bits),
    ``bits`` summed over the grants in grant order, round by round.
    """
    radio, dcf = scenario.radio, scenario.dcf
    rng = np.random.default_rng(seed)
    t_r = dcfmod.handshake_time(dcf)
    rts_s = dcf.rts_bytes * 8 / dcf.control_rate_bps
    cts_s = dcf.cts_bytes * 8 / dcf.control_rate_bps
    # channels are handled by their index into the sorted live subchannels
    live_channels = scenario.ris.subchannels
    ris_on_channel = [
        [m for m, c in enumerate(scenario.ris.subchannel_of_ris) if c == ch]
        for ch in live_channels
    ]

    def select(k, c):
        return opt.distributed_ris_select(
            channels, k, ris_on_channel[c], float(alloc.rho_sq_w[k]),
            radio.noise_w, radio.subchannel_bw_hz,
        )

    remaining = np.array(sorted(contenders), dtype=int)
    stage = np.zeros(remaining.size, dtype=int)
    total = remaining.size
    schedule = dcfmod.ServiceSchedule(total, len(live_channels), dcf.w_min, dcf.max_backoff_stage)
    paced = itertools.chain(itertools.accumulate(schedule.through()), itertools.repeat(total))
    rounds_budget = int(math.floor(budget_s / t_r + 1e-9))
    best_channel = None  # csi_best_channel picks, fixed when the first round starts

    rounds = collisions = grant_shortfall = 0
    bits_sum = 0.0
    while remaining.size and rounds < rounds_budget:
        t_rts = start_s + rounds * t_r + dcf.difs_s
        quota = next(paced) - (total - remaining.size)
        if scenario.csi_best_channel:
            if best_channel is None:
                best_channel = np.array(
                    [np.argmax([select(int(k), c)[1] for c in range(len(live_channels))])
                     for k in remaining]
                )
            pick = best_channel
            counters = np.array([below(rng, int(w)) for w in contention_windows(stage, dcf)])
        else:
            # one draw v per contender, below its window times C_s: the
            # counter is v // C_s and the pick v % C_s
            spans = contention_windows(stage, dcf) * len(live_channels)
            v = np.array([below(rng, int(w)) for w in spans], dtype=int)
            pick, counters = v % len(live_channels), v // len(live_channels)

        occupied = np.flatnonzero(np.bincount(pick, minlength=len(live_channels)))
        resolved = {}  # channel -> (its contenders, index of the winner or None)
        for c in occupied:
            here = np.flatnonzero(pick == c)
            win, tied = resolve_backoff(counters[here])
            if win is None:
                collisions += 1
                events.append(
                    TraceEvent(time_s=t_rts, kind="collision", channel=live_channels[c],
                               value=float(counters[here[tied[0]]]))
                )
                stage[here[tied]] = next_stage(stage[here[tied]], dcf)
            resolved[c] = here, win

        grant_order = occupied[permutation(rng, len(occupied))]
        grants = min(quota, len(occupied))
        grant_shortfall += quota - grants
        keep = np.ones(remaining.size, dtype=bool)
        for c in grant_order[:grants]:
            here, win = resolved[c]
            if win is None:
                # post-collision re-draw inside the round settles on one user
                win = below(rng, len(here))
            i = here[win]
            k, ch = int(remaining[i]), live_channels[c]
            m_star, rate = select(k, c)
            t_cts = t_rts + rts_s + dcf.sifs_s
            t_data = t_cts + cts_s + dcf.sifs_s
            delivered = dcf.payload_time_s * rate
            events.append(
                TraceEvent(time_s=t_rts, kind="rts", user=k, channel=ch,
                           ris=m_star, value=float(counters[i]))
            )
            events.append(TraceEvent(time_s=t_cts, kind="cts", user=k, channel=ch, ris=m_star))
            events.append(
                TraceEvent(time_s=t_data, kind="data", user=k, channel=ch,
                           ris=m_star, value=delivered)
            )
            served[k] = True
            bits[k] += delivered
            bits_sum += delivered
            keep[i] = False
        # candidates that expired without a grant sent an RTS the BS ignored
        for c in grant_order[grants:]:
            here, win = resolved[c]
            if win is not None:
                events.append(
                    TraceEvent(time_s=t_rts, kind="rts", user=int(remaining[here[win]]),
                               channel=live_channels[c], value=float(counters[here[win]]))
                )
        remaining, stage = remaining[keep], stage[keep]
        if best_channel is not None:
            best_channel = best_channel[keep]
        rounds += 1
    return rounds, collisions, grant_shortfall, int(remaining.size), bits_sum
