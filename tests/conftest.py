import dataclasses

import numpy as np

from ris_mac import channel as chan
from ris_mac import dcf as dcfmod
from ris_mac import simulator as sim
from ris_mac.scenario import DcfParams, default_scenario


def small_scenario(
    total_users=10,
    ratio=(5, 4, 1),
    num_ris=2,
    elements=8,
    seed=3,
    rate_min_bps=1e4,
    **overrides,
):
    """Desk-scale network for fast optimizer/simulator tests.

    The rate floor is loosened: with only a few reflect elements a bad
    Rayleigh draw can make the default floor genuinely infeasible.
    """
    s = default_scenario(
        total_users=total_users,
        ratio=ratio,
        num_ris=num_ris,
        elements_per_ris=elements,
        seed=seed,
        **overrides,
    )
    radio = dataclasses.replace(s.radio, rate_min_bps=rate_min_bps)
    return dataclasses.replace(s, radio=radio)


def guard_shortfall_cell(total_users, seed=22):
    """A scheme2 frame whose recursion asks for more serves than there are
    occupied channels only in starvation-guard rounds.

    w_min = 255 stalls the floor, so the guard force-serves C = 2 users a
    round, while every contender picks subchannel 0 by CSI (the surface on
    subchannel 1 reflects nothing): each round occupies one channel.  The
    budget holds three times the cascade's N_r rounds.  Returns (scenario,
    channels, frame, allocation, N_r).
    """
    dcf = DcfParams(w_min=255, w_max=255 * 2**6)
    s = small_scenario(total_users=total_users, seed=seed, elements=4, dcf=dcf)
    s = dataclasses.replace(s, csi_best_channel=True)
    ch = chan.draw_channels(s, seed)
    h = ch.h.copy()
    h[:, list(s.ris.subchannel_of_ris).index(1), :] = 0.0
    ch = chan.ChannelRealization(g=ch.g, h=h, r=ch.r)
    n_r = dcfmod.contention_cascade(total_users, len(s.ris.subchannels), dcf).n_r
    frame, alloc = sim.plan_scheme2(s, 3 * n_r * dcfmod.handshake_time(dcf))
    return s, ch, frame, alloc, n_r


def random_link(rng, n):
    """One random (r, h, g) triple with O(1)-scale magnitudes."""
    r = complex(rng.normal(), rng.normal())
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    return r, h, g


def aligned_gain_magnitude(r: complex, h: np.ndarray, g: np.ndarray) -> float:
    """|r| + sum |h_n||g_n|, the phase-aligned composite amplitude."""
    return float(np.abs(r) + np.sum(np.abs(h) * np.abs(g)))


def composite_gain(r, h, g, theta) -> complex:
    """Composite channel r + sum_n h_n * e^{j theta_n} * g_n at explicit phases."""
    return complex(r + np.sum(np.asarray(h) * np.exp(1j * np.asarray(theta)) * np.asarray(g)))
