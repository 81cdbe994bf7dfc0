"""Monte-Carlo frame engine: pilots, computing, scheduled slots, and the
RTS/CTS contention rounds, event by event.

The scheduled period is deterministic given the allocation: each scheduled
user transmits through its assigned surface at the realization's cached
aligned amplitude |r| + sum |h||g| (every element co-phased with the direct
path; allocations carry only surface, slot and power), the same gain the
optimizer and the contended grants read.  It is one pass of array
operations with no per-user Python step: a stable argsort of the slots
orders the scheduled users by (slot, ascending user), a mask drops the
grants past the slots the period holds, one aligned_rates call gives the
bits, and np.cumsum sums them left to right in that order (the oracle
scheduled_period in tests/oracles.py is the per-user form).  The contended
period advances in rounds of one handshake time t_r each.

The contention draws follow one rule, on the frame's fresh PCG64 and no
Generator call.  A word is the high 32 bits of the next ``random_raw``
output, and a draw below b is (w * b) >> 32 for the next word w, with no
rejection: of the 2^32 words, floor(2^32 / b) or one more map to each
value, so each value's probability is off by at most b / 2^32 of itself
(4.5e-7 at the reference's window of 960 on 2 subchannels;
validate_scenario caps w_max * C at 2^20, which keeps it at or below
2^-12).  A round takes one word per remaining contender, in sorted-id
order, and draws v below its span W_s * C_s, where W_s = w_min * 2^s is
its stage's window: its backoff counter is v // C_s and its
subchannel pick v % C_s.  Picks are fixed, and the span is W_s alone, on a
single subchannel and under csi_best_channel.  The grant order is a
Fisher-Yates shuffle of the occupied channels by the same rule (position
i = k-1 .. 1 swaps with a draw below i + 1, so one channel takes no
word), and a granted collided channel re-draws its winner below the count
of its contenders, in ascending index order.  The round loop reads all of
these words by position from one read-ahead buffer, a WordTape, and a
round that grants no one in a frame that records no trace skips its
shuffle's k - 1 words without building the order.

One sort of the unique key (v << 32) | term resolves every occupied
subchannel at once.  The term is the contender's index, plus n0 times its
pick when the picks are fixed; n0 is the frame's starting contender
count, and C_s * n0 < 2^32 (checked) keeps the term in the low word.  A
round builds its keys in three array operations: the product of its
words and the spans, whose high word is v, a mask that keeps that word,
and an or with the terms; the product stays unsorted for a collided
channel's re-draw and the trace's counters.  Sorted, the keys run by
counter, then channel, then index, so each channel's first key holds its
minimum counter, whose unique holder wins, while a run of keys that share
it is a collision that raises the tied users' stages, and only their
spans are rewritten.  The round reads only the head of the sorted keys:
the scan stops once every channel has shown its minimum and that
minimum's run has ended, and slices the rest only when the head does not
settle the round, as when fewer than C_s channels are occupied.  A round
that serves anyone shrinks the spans and terms by moving their kept
stretches down in place, and the frame writes its grants into its served
and bits arrays once, when its rounds end.

The round loop reads only the seed, the contender count n0, the live
channel count C, the DCF windows and the fixed picks, never a user id,
rate or surface.  So it is one object, a ContentionRun, keyed by (seed,
n0, C, w_min, max_backoff_stage, draw_picks, fixed picks under
csi_best_channel), which works in contender positions and logs each
grant's position, channel and round, and the running collision and
shortfall counts in the rounds that change them.  ``through(budget)``
steps it only as far as a reader asks, like dcf.ServiceSchedule, and a
frame reads its cut at min(budget, rounds): a shorter budget only ends
the same run sooner.  The frame maps positions to its own ids and its
best_surfaces rates, and sums the bits in grant order, so every byte is
that of a run stepped for the frame alone.  Unrecorded frames read their
run through a process memo (memo_cut) of the current seed's runs, sweep
jobs being seed-major, under a hard cap of MEMO_VALUES entries; an
evicted run is stepped again from round 0 by its next reader.  Frames
that share a run: the proposed frames of a users sweep and the scheme 2
frames at half their size (both contend with the same n0), every element
count of a sweep whose contender count stays put, and every split value
of a seed.  A recorded frame steps a fresh run outside the memo, through
the same loop with an event log.

The BS paces its CTS grants to the closed-form service recursion
(dcf.ServiceSchedule) that contention_cascade sizes the contended period
from.  Its per-round serve increments are cached once per (Y, C, w_min, l)
for the process (dcf.service_schedule, the one cache, which the cascade
wraps), and a run reads them by round index, stepping the recursion no
further than its readers' round budgets: each round adds the increment to
the serves owed, grants min(owed, occupied channels), and carries the rest
to the next round.  So the rounds-to-all-served tracks the analytic round
count while the seed decides which user wins which round, on which
channel, and at what rate.  Backoff
airtime is not part of the t_r budget, matching the handshake-time
accounting; counters are logged as event metadata.

A frame sums the bits of each period as it grants them, in the order a
stable time sort of its trace holds the data events (float addition is not
associative): scheduled grants by (slot, ascending user), contended grants
round by round in grant order; optimizer.throughput_from_bits turns the two
sums into S_s, S_c and S_o.  TraceEvents are built only when a caller asks
(run_frame's ``record``, set by ``run_cell(events=[...])`` and so by
``simulate --events``); sweep frames carry an empty event list.
The test oracle measure_throughput (tests/oracles.py) recomputes the three
figures from a recorded trace.

Every rate a frame grants comes from one exact array pass per period,
channel.aligned_rates, which applies the float operations of the scalar
chain rate_bps(amplitude_snr(a, p, noise)), a test oracle in
tests/oracles.py: each square is ``np.float_power(a, 2.0)``, which equals
Python's ``float ** 2`` (numpy's ``a**2`` differs from it in the last bit
for some values), then ``a2 * p / noise`` and ``bw * np.log2(1.0 + snr)``
as arrays, so the rates, and the table bytes, are those of the chain.  The
scheduled period computes every granted user's bits in one call; the
contended period builds, once per frame, each contender's best surface and
rate on each live channel (optimizer.best_surfaces, where the tie rule is
written), which the grants and the csi_best_channel picks read.

Benchmarks: scheme 1 schedules every existing user centrally (new arrivals
wait a frame); scheme 2 lets everyone contend.  Both run against the same
transmission-period duration as the proposed frame so the comparison is at
equal channel time.  Each planner encodes its split in the FrameConfig and
allocation it returns (scheme 1 alpha = 1, beta = 0 and a slot for every
existing user; scheme 2 alpha = 0, beta = 1 and no slots), and run_frame
reads every period length from that FrameConfig and who is scheduled from
the allocation's slots.  plan_mode is the one place a mode name picks a
planner; run_frame reads the name only to label the trace.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import channel as chan
from . import dcf as dcfmod
from . import optimizer as opt
from .scenario import (
    CLASS_MOBILE,
    CLASS_NEW,
    CLASS_STATIC,
    Scenario,
)

MODES = ("proposed", "scheme1", "scheme2")

# a round key's low word, its term, and its high word, its draw v, as a
# numpy scalar: as a round's operand a Python int costs more than the mask
LOW = 0xFFFFFFFF
_HIGH = np.int64(~LOW)


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


def window_table(dcf) -> list:
    """Binary exponential backoff: the window w_min * 2^s at each stage
    s = 0..max_backoff_stage; a collision moves a contender one stage up,
    capped at the last, whose window is w_max."""
    return [dcf.w_min * 2**s for s in range(dcf.max_backoff_stage + 1)]


class WordTape:
    """One frame's contention words, read ahead into one buffer: the frame's
    j-th word is the high 32 bits of its fresh PCG64's j-th ``random_raw``
    output.

    ``words`` is the buffer, an int64 array that its reader reads by
    position.  Before a read would pass its end, the reader calls
    ``refill`` with the position of its first unread word.
    """

    READ_AHEAD = 16

    def __init__(self, rng: np.random.Generator):
        bg = rng.bit_generator
        if not isinstance(bg, np.random.PCG64):
            raise ValueError("a word tape needs a PCG64")
        self._raw = bg.random_raw
        self.words = np.empty(0, dtype=np.int64)

    def refill(self, pos: int, count: int) -> np.ndarray:
        """The new buffer: the words from ``pos`` on, followed by READ_AHEAD
        times ``count`` fresh ones, so its word 0 is the old buffer's word
        ``pos`` and at least ``count`` words can be read from there."""
        fresh = self._raw(self.READ_AHEAD * count) >> 32
        self.words = np.concatenate((self.words[pos:], fresh.view(np.int64)))
        return self.words


HEAD = 16  # sorted keys a round reads before it reads the rest
_HEAD_FIRST = (slice(HEAD), slice(HEAD, None))


def resolve_round(keys: np.ndarray, num_channels: int, n0: int, per_counter: int) -> tuple:
    """First-expiry resolution of one round on every occupied subchannel.

    ``keys`` holds one unique key ``(v << 32) | term`` per contender and
    is sorted in place.  The draw v is counter * per_counter + pick, where
    per_counter is num_channels when the picks are drawn and 1 when they
    are fixed; the term is index + n0 * pick with index < n0, its pick 0
    when drawn.  So a key's channel is
    ``(key >> 32) % per_counter + (key & LOW) // n0`` and its index
    ``(key & LOW) % n0``.  Sorted, the keys run by counter, then channel,
    then index, so each channel's first key holds its minimum counter, and
    the keys that share its counter and channel (its run) are the users
    tied on it, in ascending index order.  The scan stops at the first key
    after every channel has shown its minimum and that minimum's run has
    ended, so it reads the HEAD keys of the sorted list, and slices the
    rest only when they do not settle the round, as when fewer than
    ``num_channels`` channels are occupied.  Returns lists (occupied, lead,
    collided, tied):

    - ``occupied``: the channels with contenders, ascending;
    - ``lead``: per occupied channel, the index of its minimum counter's
      holder (on a tie, the lowest tied index);
    - ``collided``: per occupied channel, whether the minimum is tied, so
      those users' RTS frames collide and the channel has no winner;
    - ``tied``: the indices of every tied user, channel by channel in the
      order the scan meets them, ascending within a channel.
    """
    keys.sort()  # in place: np.sort would copy the fresh array
    lead = [-1] * num_channels
    collided = [False] * num_channels
    tied = []
    unseen = num_channels
    run_end = c = 0  # one past the run being read, and its channel
    for part in _HEAD_FIRST:
        for key in keys[part].tolist():
            if key < run_end:
                if not collided[c]:
                    collided[c] = True
                    tied.append(lead[c])
                tied.append((key & LOW) % n0)
            elif unseen:
                low = key & LOW
                c = (key >> 32) % per_counter + low // n0
                if lead[c] < 0:
                    i = lead[c] = low % n0
                    unseen -= 1
                    run_end = key - i + n0
            else:
                break
        else:
            continue  # the head did not settle the round: read the rest
        break
    if not unseen:
        return list(range(num_channels)), lead, collided, tied
    occupied = [c for c in range(num_channels) if lead[c] >= 0]
    return occupied, [lead[c] for c in occupied], [collided[c] for c in occupied], tied


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

    Every period length comes from ``frame`` and the user split from
    ``alloc``: the users that hold a slot are scheduled, and the rest
    contend when the frame has a contended period.  ``mode`` only labels
    the trace.

    The bits of each period are summed as the grants are made, in the order
    a stable time sort of the trace holds them: scheduled grants by (slot,
    ascending user), contended grants round by round in grant order, so the
    oracle measure_throughput over a recorded trace gives the same three
    figures.
    """
    if mode not in MODES:
        raise ModeMismatchError("unknown mode %r" % mode)
    radio, dcf = scenario.radio, scenario.dcf
    pop = scenario.population
    n_users = pop.num_total
    cls = pop.classes
    slot = alloc.slot_of_user
    holds_slot = slot >= 0
    scheduled = np.flatnonzero(holds_slot)
    contenders = np.flatnonzero(~holds_slot).tolist() if frame.contended_s > 0 else []

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
    if scheduled.size:
        slot_s = dcf.data_slot_s
        # users are listed ascending, so the stable sort gives (slot, user) order
        scheduled = scheduled[np.argsort(slot[scheduled], kind="stable")]
        # a grant past the slots the common transmission budget holds is dropped
        granted = scheduled[slot[scheduled] < slots_available]
        grants_dropped = scheduled.size - granted.size
        surface = alloc.ris_of_user[granted]
        gained = slot_s * chan.aligned_rates(
            channels.aligned_amplitude[granted, surface], alloc.rho_sq_w[granted],
            radio.noise_w, radio.subchannel_bw_hz,
        )
        if granted.size:
            sched_bits = float(np.cumsum(gained)[-1])  # left to right, in grant order
        if record:
            sub = scenario.ris.subchannel_of_ris
            t_slot = (sched_start + slot[granted] * slot_s).tolist()
            rows = zip(t_slot, granted.tolist(), surface.tolist(), gained.tolist())
            for t, k, m, delivered in rows:
                events.append(TraceEvent(t, "slot-grant", k, sub[m], m))
                events.append(TraceEvent(t, "data", k, sub[m], m, delivered))
        # each user holds at most one slot, and a user with a slot never contends
        served[granted] = True
        bits[granted] = gained

    n_r_measured = collisions = grant_shortfall = contenders_left = 0
    cont_bits = 0.0
    if contenders:
        n_r_measured, collisions, grant_shortfall, contenders_left, cont_bits = _run_contention(
            scenario, channels, alloc, contenders, sched_start + frame.scheduled_s,
            frame.contended_s, seed, events if record else None, served, bits,
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


# the contention memo's cap, in entries of ContentionRun.values, each at
# most 40 bytes (a list slot and its int object, or an int64 word): 2.5 MiB
MEMO_VALUES = 1 << 16


class ContentionRun:
    """One contention run (see the module docstring), stepped only as far
    as its readers ask.

    ``n0`` contenders on ``num_channels`` live channels draw from the
    fresh PCG64 of ``seed``; position p is the p-th smallest contender id.
    The picks are drawn when ``picks`` is None and C > 1, else fixed:
    ``picks`` per position (csi_best_channel), or channel 0 on one channel.
    ``through(budget)`` resumes the loop where the last call stopped and
    returns the cut at the budget.  The log: ``won`` and ``won_on`` hold
    every grant's position and channel index in grant order, ``won_at``
    the round it was made in, counted from 1; the running collision and
    shortfall counts are logged the same way, in the rounds that change
    them.  With ``log_events``, ``events`` holds one (round, kind,
    position, channel, counter) per collision (position -1), grant and
    ignored RTS, in the order a trace appends them.
    """

    def __init__(self, seed, n0: int, num_channels: int, dcf, picks=None, log_events=False):
        self.n0, self.num_channels = n0, num_channels
        self._schedule = dcfmod.service_schedule(n0, num_channels, dcf.w_min, dcf.max_backoff_stage)
        top = dcf.max_backoff_stage
        self._up = list(range(1, top + 1)) + [top]  # the stage a collision moves each stage to
        self._draw_picks = num_channels > 1 and picks is None
        self._per_counter = num_channels if self._draw_picks else 1  # values of v per counter
        self._spans = [w * self._per_counter for w in window_table(dcf)]
        # stepping state, indexed like the positions left: each one's
        # backoff stage, its span W_s * C_s (W_s when the picks are fixed),
        # and its key term, its index plus n0 times its pick when fixed;
        # ``remaining`` holds the positions left
        self._remaining = list(range(n0))
        self._stage = [0] * n0
        self._span = np.full(n0, self._spans[0], dtype=np.int64)
        self._term = np.arange(n0, dtype=np.int64)
        if picks is not None:
            self._term += n0 * np.asarray(picks, dtype=np.int64)
        self._tape = WordTape(np.random.default_rng(seed))
        self._pos = self._owed = 0
        self.rounds = 0
        self.won, self.won_on, self.won_at = [], [], []
        self._collisions_at, self._collisions = [], []
        self._shortfall_at, self._shortfall = [], []
        self.events = [] if log_events else None

    @property
    def values(self) -> int:
        """The entries the run holds: its logs, and its stepping state (tape,
        spans, terms, stages, positions) until its last grant."""
        held = 3 * len(self.won) + 2 * (len(self._collisions_at) + len(self._shortfall_at))
        if self._tape is not None:
            held += len(self._tape.words) + 4 * self.n0
        return held

    def through(self, budget: int) -> tuple:
        """Step to round ``budget`` or the run's end and return the cut at
        ``min(budget, rounds)``: (rounds, collisions, grant_shortfall,
        grants), the first ``grants`` entries of the grant log."""
        if self.rounds < budget and self._remaining:
            self._step(budget)
        r = min(budget, self.rounds)
        return (
            r, _count_at(self._collisions_at, self._collisions, r),
            _count_at(self._shortfall_at, self._shortfall, r), bisect_right(self.won_at, r),
        )

    def _step(self, budget: int) -> None:
        remaining, stage, span, term = self._remaining, self._stage, self._span, self._term
        n, n0, num_channels = len(remaining), self.n0, self.num_channels
        up, spans, per_counter, draw_picks = self._up, self._spans, self._per_counter, self._draw_picks
        won, won_on, won_at = self.won, self.won_on, self.won_at
        collisions_at, collisions_log = self._collisions_at, self._collisions
        shortfall_at, shortfall_log = self._shortfall_at, self._shortfall
        events = self.events
        tape = self._tape
        # a round reads at most n + 2 C - 1 words: its n draws, k - 1 for the
        # shuffle of its k <= C occupied channels and one re-draw per grant
        reach = 2 * num_channels
        # the recursion's serves per round, stepped no further than the
        # budget; past its end it serves no one
        paced = self._schedule.through(budget)
        paced_rounds = len(paced)
        rounds, owed = self.rounds, self._owed
        collisions = collisions_log[-1] if collisions_log else 0
        shortfall = shortfall_log[-1] if shortfall_log else 0
        words, pos = tape.words, self._pos
        while n and rounds < budget:
            if rounds < paced_rounds:
                owed += paced[rounds]
            rounds += 1
            if pos + n + reach > len(words):
                words, pos = tape.refill(pos, n + reach), 0
            # the key (v << 32) | term with v = (w * span) >> 32, below 2^52
            # by validate_scenario's span cap of 2^20; the product stays
            # unsorted for the re-draw and the trace's counters
            product = words[pos:pos + n] * span
            pos += n
            keys = product & _HIGH
            keys |= term

            occupied, lead, collided, tied = resolve_round(keys, num_channels, n0, per_counter)
            for i in tied:
                s = stage[i] = up[stage[i]]
                span[i] = spans[s]
            if tied:
                collisions += sum(collided)
                collisions_at.append(rounds)
                collisions_log.append(collisions)
            if events is not None:
                for c, i, tie in zip(occupied, lead, collided):
                    if tie:
                        events.append((
                            rounds, "collision", -1, c, (product.item(i) >> 32) // per_counter
                        ))

            # serves the recursion asked for beyond the occupied channels
            # carry over to the next round
            k = len(occupied)
            grants = min(owed, k)
            owed -= grants
            if owed:
                shortfall += owed
                shortfall_at.append(rounds)
                shortfall_log.append(shortfall)
            if not grants and events is None:
                pos += k - 1  # no grant and no trace reads the order: skip its words
                continue
            # the grant order: a Fisher-Yates shuffle of the occupied channels
            grant_order = list(range(k))
            for g in range(k - 1, 0, -1):
                j = (words.item(pos) * (g + 1)) >> 32
                pos += 1
                grant_order[g], grant_order[j] = grant_order[j], grant_order[g]
            granted = []
            for g in grant_order[:grants]:
                c, i = occupied[g], lead[g]
                if collided[g]:
                    # post-collision re-draw inside the round settles on one
                    # of the channel's contenders, in ascending index order
                    pick = (product >> 32) % num_channels if draw_picks else term // n0
                    here = np.flatnonzero(pick == c)
                    i = int(here[(words.item(pos) * here.size) >> 32])
                    pos += 1
                won.append(remaining[i])
                won_on.append(c)
                won_at.append(rounds)
                granted.append(i)
                if events is not None:
                    events.append((
                        rounds, "grant", remaining[i], c, (product.item(i) >> 32) // per_counter
                    ))
            if events is not None:
                # candidates that expired without a grant sent an RTS the BS ignored
                for g in grant_order[grants:]:
                    if not collided[g]:
                        i = lead[g]
                        events.append((
                            rounds, "rts", remaining[i], occupied[g],
                            (product.item(i) >> 32) // per_counter,
                        ))
            if granted:
                # drop the granted entries by moving each kept stretch of
                # the spans and terms down in place; a term moved d places
                # loses d, so it stays index plus n0 times the pick (drawn
                # picks leave the terms equal to the indices, which the move
                # would not change)
                granted.sort()
                for i in reversed(granted):
                    del remaining[i], stage[i]
                for d, (i, j) in enumerate(zip(granted, granted[1:] + [n]), 1):
                    span[i + 1 - d:j - d] = span[i + 1:j]
                    if not draw_picks:
                        term[i + 1 - d:j - d] = term[i + 1:j] - d
                n = len(remaining)
                span, term = span[:n], term[:n]
        self.rounds, self._owed, self._pos = rounds, owed, pos
        if n:
            self._span, self._term = span, term
        else:  # every contender is served: the run's end, whose state no step reads
            self._tape = self._span = self._term = None


def _count_at(at, counts, rounds: int) -> int:
    """A running count logged at the round counts ``at``, after ``rounds`` rounds."""
    i = bisect_right(at, rounds)
    return counts[i - 1] if i else 0


# the current seed's runs by key, least recently read first (see memo_cut)
_MEMO: dict = {}


def memo_cut(seed, n0: int, num_channels: int, dcf, picks, budget: int) -> tuple:
    """(run, cut): the memo's ContentionRun of this key, stepped through
    ``budget``, and its cut there.

    The memo holds the current seed's runs only: a new seed's first run
    drops the others.  Over MEMO_VALUES entries (ContentionRun.values) it
    drops the least recently read runs first, the one just read too when
    it alone is over the cap.
    """
    draw_picks = num_channels > 1 and picks is None
    key = (
        seed, n0, num_channels, dcf.w_min, dcf.max_backoff_stage, draw_picks,
        None if picks is None else picks.tobytes(),
    )
    run = _MEMO.pop(key, None)  # a step that raises leaves the run out
    if run is None:
        for other in [k for k in _MEMO if k[0] != seed]:
            del _MEMO[other]
        run = ContentionRun(seed, n0, num_channels, dcf, picks)
    cut = run.through(budget)
    _MEMO[key] = run
    held = sum(r.values for r in _MEMO.values())
    while held > MEMO_VALUES:
        held -= _MEMO.pop(next(iter(_MEMO))).values
    return run, cut


def _run_contention(
    scenario, channels, alloc, contenders, start_s, budget_s, seed, events, served, bits
):
    """Round-paced DCF with BS-gated grants: the contention run of
    ``seed`` over the sorted ``contenders``, cut at the frame's round
    budget.

    An unrecorded frame reads the run from the memo (memo_cut); with
    ``events`` (a list, else None) the frame steps a fresh run outside the
    memo that logs its events, and appends the rounds' TraceEvents.  Maps
    the run's positions to the contender ids and its grants to their
    best_surfaces rates, marks the granted contenders in ``served`` and
    adds their bits to ``bits``.  Returns (rounds, collisions,
    grant_shortfall, contenders_left, bits), ``bits`` summed over the
    grants round by round in grant order.
    """
    radio, dcf = scenario.radio, scenario.dcf
    # channels are handled by their index into the sorted live subchannels
    live_channels = scenario.ris.subchannels
    num_channels = len(live_channels)
    ids = sorted(int(k) for k in contenders)
    n0 = len(ids)
    if num_channels * n0 > LOW:
        raise ValueError(
            "a round key's low word holds index + n0 * pick: C * n0 = %d must be below 2^32"
            % (num_channels * n0)
        )
    t_r = dcfmod.handshake_time(dcf)
    rounds_budget = int(math.floor(budget_s / t_r + 1e-9))
    # every rate a grant can read: each contender's best surface and its
    # rate on each channel, by position
    surface_on, rate_on = opt.best_surfaces(
        channels, ids, scenario.ris.surfaces_by_subchannel, alloc.rho_sq_w[ids],
        radio.noise_w, radio.subchannel_bw_hz,
    )
    # csi_best_channel picks, fixed before the first round
    picks = np.argmax(rate_on, axis=1) if scenario.csi_best_channel and num_channels > 1 else None
    if events is None:
        run, (rounds, collisions, shortfall, grants) = memo_cut(
            seed, n0, num_channels, dcf, picks, rounds_budget
        )
    else:
        run = ContentionRun(seed, n0, num_channels, dcf, picks, log_events=True)
        rounds, collisions, shortfall, grants = run.through(rounds_budget)
    # every grant's position, channel and bits, in grant order; the bits
    # are summed in that order (np.cumsum adds left to right)
    granted = np.array(run.won[:grants], dtype=np.int64)
    gains = dcf.payload_time_s * rate_on[granted, np.array(run.won_on[:grants], dtype=np.int64)]
    bits_sum = float(np.cumsum(gains)[-1]) if grants else 0.0
    won = np.asarray(ids)[granted]
    if events is not None:
        rts_s = dcf.rts_bytes * 8 / dcf.control_rate_bps
        cts_s = dcf.cts_bytes * 8 / dcf.control_rate_bps
        delivered = iter(gains.tolist())
        for r, kind, p, c, counter in run.events:
            t_rts = start_s + (r - 1) * t_r + dcf.difs_s
            ch = live_channels[c]
            if kind == "collision":
                events.append(TraceEvent(t_rts, "collision", -1, ch, -1, float(counter)))
            elif kind == "rts":
                events.append(TraceEvent(t_rts, "rts", ids[p], ch, -1, float(counter)))
            else:
                user, m_star = ids[p], surface_on.item(p, c)
                t_cts = t_rts + rts_s + dcf.sifs_s
                t_data = t_cts + cts_s + dcf.sifs_s
                events.append(TraceEvent(t_rts, "rts", user, ch, m_star, float(counter)))
                events.append(TraceEvent(t_cts, "cts", user, ch, m_star))
                events.append(TraceEvent(t_data, "data", user, ch, m_star, next(delivered)))
    # each contender is granted at most once, so no id repeats in ``won``
    served[won] = True
    bits[won] += gains
    return rounds, collisions, shortfall, n0 - grants, bits_sum


def measure_fairness(trace: FrameTrace) -> dict:
    """Fraction of one frame's users served, split by class; nan for a
    class the frame has no user of."""
    names = {CLASS_STATIC: "static", CLASS_MOBILE: "mobile", CLASS_NEW: "new"}
    # (class, served) pair counts, class ids being 0..2: users and served
    # users per class
    tally = np.bincount(2 * trace.class_of_user + trace.served, minlength=2 * len(names))
    served = tally[1::2]
    users = tally[0::2] + served
    return {
        name: (float(served[cid] / users[cid]) if users[cid] else float("nan"))
        for cid, name in names.items()
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
    j1 = -(-k_exist // len(scenario.ris.subchannels))

    alloc = opt.empty_allocation(pop.num_total)
    # new users follow the existing block, so every static id is below k_exist
    is_static = pop.classes[:k_exist] == CLASS_STATIC
    static_ids = np.flatnonzero(is_static)
    rho = np.where(is_static, radio.p_max_w / max(static_ids.size, 1), radio.tx_power_mobile_w)
    ris_of, slot_of, _ = opt.centralized_ris_config(
        channels, np.arange(k_exist), rho, radio.noise_w, radio.subchannel_bw_hz, j1,
        scenario.ris.surfaces_by_subchannel,
    )
    alloc.ris_of_user[:k_exist] = ris_of
    alloc.slot_of_user[:k_exist] = slot_of
    alloc.rho_sq_w[:k_exist] = rho
    _, powers = opt.static_power(channels, static_ids, alloc.ris_of_user[static_ids], radio)
    alloc.rho_sq_w[static_ids] = powers

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
