"""Stochastic channel realizations and the rates of their aligned
amplitudes.

Each user sees a direct user-BS link plus, per surface, a cascaded
user-RIS-BS reflect path.  A realization is frozen for the duration of a
frame (quasi-static fading); every function here is pure, so repeated
evaluations on the same realization are bit-identical.

Under co-phasing the model reads one channel quantity, the aligned
amplitude |r_k| + sum_n |h_kmn||g_kmn|, so a drawn realization holds that
and r.  The complex reflect links g and h, two (U, M, N) arrays, are
streamed through row blocks and built whole only when read, which keeps
them out of a sweep's peak memory and saves their page faults.

A draw of seed s reads a prefix of default_rng(s).standard_normal.  Draws
whose 4*U*M*N + 2*U normals fit in MEMO_VALUES (2 MiB) read views of a
memo of the last seed's prefix (NormalTape), so a seed-major sweep
generates each seed's normals once: fig5 and fig9 at every value, fig7 and
fig8 at 1-2 surfaces.  Larger draws, such as the 800-user static-heavy
sweep's, stream from a fresh generator and leave the memo alone.

No phase is computed here: every rate reads the aligned amplitude.  The
paper's phase rule that attains it (align_phases) and the scalar rate chain
that aligned_rates reproduces (rate_bps, amplitude_snr) are test oracles,
in tests/oracles.py.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .scenario import Scenario, db_to_linear

MIN_LINK_DISTANCE_M = 0.1
TWO_PI = 2.0 * np.pi
# Reflect links are built as complex in row blocks of at most this many
# values (2 MiB), or of one row where a row is longer, so a streamed draw
# needs two (U * M, N) float buffers and a memo draw one, plus a fixed
# slack, not whole-array complex temporaries.
BLOCK_VALUES = 1 << 17
# The capacity of the memo of normals (NormalTape), 2 MiB of float64
MEMO_VALUES = 1 << 18


class NormalTape:
    """A prefix memo of one seed's standard normals.

    Every draw of seed s reads a prefix of one sequence,
    default_rng(s).standard_normal, in the order g re, g im, h re, h im,
    r re, r im; numpy fills element by element, so how the sequence is
    chunked does not change its values.  The memo keeps the longest prefix
    read so far of the last seed, in one float64 buffer of MEMO_VALUES
    values allocated once, and extends it from the generator left at its
    end.  A draw of another seed replaces it.  So the draws of one seed at
    several sweep values generate its normals once.
    """

    def __init__(self):
        self.values = np.empty(MEMO_VALUES)
        self.seed = None
        self.filled = 0
        self._rng = None

    def prefix(self, seed: int, count: int) -> np.ndarray:
        """The first ``count`` normals of seed ``seed``, a view of the memo."""
        if count > self.values.size:
            raise ValueError("%d normals exceed the memo's %d" % (count, self.values.size))
        if self._rng is None or seed != self.seed:
            self.seed, self.filled, self._rng = seed, 0, np.random.default_rng(seed)
        if count > self.filled:
            self._rng.standard_normal(out=self.values[self.filled : count])
            self.filled = count
        return self.values[:count]

    def reader(self, seed: int, count: int):
        """normals(shape, out=None), which returns a draw's next normals in
        ``shape``, for a draw of ``count`` normals in all.

        A draw that fits reads views of the memo; a caller must not write
        to them or keep them.  A larger draw streams them from a fresh
        default_rng(seed), into ``out`` where given, and neither reads nor
        grows the memo.
        """
        if count > self.values.size:
            rng = np.random.default_rng(seed)
            return lambda shape, out=None: rng.standard_normal(shape, out=out)
        memo = self.prefix(seed, count)
        end = 0

        def normals(shape, out=None):
            nonlocal end
            start, end = end, end + math.prod(shape)
            return memo[start:end].reshape(shape)

        return normals


_TAPE = NormalTape()


class DegenerateGeometryError(ValueError):
    """A link distance fell below the path-loss model's validity floor."""


class ChannelRealization:
    """One frame's channels.

    r[k]                     direct user k -> BS
    aligned_amplitude[k, m]  |r_k| + sum_n |h_kmn||g_kmn|, user k's gain
                             through surface m at aligned phases
    g[k, m, :]               user k -> RIS m, one entry per element
    h[k, m, :]               RIS m -> BS as seen by user k's transmission

    Built from explicit links (replay_channels, the tests), a realization
    keeps g, h and r and computes the amplitude over the whole arrays.  A
    realization from draw_channels holds r, the amplitude and its
    (scenario, seed) only, since every rate reads the amplitude alone:
    leaving out the complex g and h cuts a sweep's peak memory and the cost
    of faulting them in.  The first read of g or h repeats the draw and
    keeps both; the draw is deterministic, so they are the links the
    amplitude was computed from.
    """

    def __init__(self, g: np.ndarray, h: np.ndarray, r: np.ndarray):
        self.r = r
        self.aligned_amplitude = np.abs(r)[:, None] + (np.abs(h) * np.abs(g)).sum(axis=2)
        self._links = (g, h)
        self._source = None

    @classmethod
    def _drawn(cls, scenario: Scenario, rng_seed: int, r, amplitude) -> "ChannelRealization":
        """The realization of draw_channels(scenario, rng_seed), links unbuilt."""
        self = cls.__new__(cls)
        self.r = r
        self.aligned_amplitude = amplitude
        self._links = None
        self._source = (scenario, rng_seed)
        return self

    @property
    def g(self) -> np.ndarray:
        return self._link_pair()[0]

    @property
    def h(self) -> np.ndarray:
        return self._link_pair()[1]

    def _link_pair(self) -> tuple:
        if self._links is None:
            self._links = _draw(*self._source, links=True)[2]
        return self._links


def _pathloss_power(dist_m, exponent: float, ref_db: float):
    """Power gain of the distance power law with a 1 m reference."""
    return db_to_linear(ref_db) * np.asarray(dist_m, dtype=float) ** (-exponent)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a - b, axis=-1)


def draw_channels(scenario: Scenario, rng_seed: int) -> ChannelRealization:
    """Sample one quasi-static realization for every user and surface.

    Reflected links (user-RIS and RIS-BS) are Rician: a deterministic
    unit-modulus LoS term with phase set by the link distance in
    wavelengths, plus a circular complex Gaussian scatter term weighted by
    the K-factor.  The direct user-BS link is Rayleigh (K = 0) with the
    NLoS exponent.  The result holds the aligned amplitudes and r; see
    ChannelRealization for g and h.
    """
    amplitude, r, _ = _draw(scenario, rng_seed)
    return ChannelRealization._drawn(scenario, rng_seed, r, amplitude)


def _draw(scenario: Scenario, rng_seed: int, links: bool = False) -> tuple:
    """(aligned amplitude, r, (g, h)) of one draw; g and h are the complex
    links when ``links`` is set, else None and never built."""
    radio = scenario.radio
    pop = scenario.population
    ris = scenario.ris
    n_users = pop.num_total
    n_ris = ris.num_ris
    n_el = ris.elements_per_ris

    users = np.asarray(pop.positions, dtype=float).reshape(n_users, 3)
    bs = np.asarray(scenario.bs_position, dtype=float)
    surfaces = np.asarray(ris.positions, dtype=float).reshape(n_ris, 3)

    d_direct = _distances(users, bs)  # (U,)
    d_user_ris = _distances(users[:, None, :], surfaces[None, :, :])  # (U, M)
    d_ris_bs = _distances(surfaces, bs)  # (M,)

    for name, d in (
        ("user-BS", d_direct),
        ("user-RIS", d_user_ris),
        ("RIS-BS", d_ris_bs),
    ):
        if n_users == 0 and name != "RIS-BS":
            continue
        if d.size and float(np.min(d)) < MIN_LINK_DISTANCE_M:
            raise DegenerateGeometryError(
                "degenerate geometry: %s distance %.3g m below %.1f m"
                % (name, float(np.min(d)), MIN_LINK_DISTANCE_M)
            )

    kf = db_to_linear(radio.rician_k_factor_db)
    lam = radio.wavelength_m
    scatter = np.sqrt(1.0 / (2.0 * (kf + 1.0)))
    size = (n_users, n_ris, n_el)
    rows = n_users * n_ris
    step = max(1, BLOCK_VALUES // max(1, n_el))
    im = np.empty((min(step, rows), n_el))
    block = np.empty(im.shape, dtype=complex)
    normals = _TAPE.reader(rng_seed, 4 * rows * n_el + 2 * n_users)

    def rician(dist, re, out, times_g):
        # One row per (user, surface) pair: re holds the real parts of every
        # link, and the imaginary parts follow one row block at a time, in
        # the order of one whole-array draw.  Each block is built as complex,
        # in ``out`` when the links are kept, through the same ufuncs as
        # amp * (los + s * (re + 1j * im)), so the bytes match.  Its
        # magnitudes then overwrite its rows of mags, or with ``times_g``
        # are multiplied into them: the im block is free once c holds it,
        # and the product is commutative, so these are the bytes of one
        # whole-array |h| * |g|.
        amp = np.sqrt(_pathloss_power(dist, radio.pathloss_exp_los, radio.pathloss_ref_db))
        los = np.sqrt(kf / (kf + 1.0)) * np.exp(-1j * TWO_PI * dist / lam)
        amp, los = amp.reshape(rows, 1), los.reshape(rows, 1)
        if out is not None:
            out = out.reshape(rows, n_el)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            c = block[: hi - lo] if out is None else out[lo:hi]
            c.real = re[lo:hi]
            c.imag = normals(im[: hi - lo].shape, im[: hi - lo])
            c *= scatter
            c += los[lo:hi]
            c *= amp[lo:hi]
            if times_g:
                mags[lo:hi] *= np.abs(c, out=im[: hi - lo])
            else:
                np.abs(c, out=mags[lo:hi])

    g = h = None
    if links:
        g, h = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    # a streamed draw writes g's real parts into mags, which |g| then
    # overwrites block by block (each block is read before it is written)
    mags = np.empty((rows, n_el))
    rician(d_user_ris, normals(mags.shape, mags), g, times_g=False)
    rician(np.broadcast_to(d_ris_bs, (n_users, n_ris)), normals(mags.shape), h, times_g=True)

    amp_direct = np.sqrt(
        _pathloss_power(d_direct, radio.pathloss_exp_nlos, radio.pathloss_ref_db)
    )
    r = amp_direct * np.sqrt(0.5) * (normals((n_users,)) + 1j * normals((n_users,)))
    amplitude = np.abs(r)[:, None] + mags.reshape(size).sum(axis=2)
    return amplitude, r, (g, h)


def aligned_rates(amplitude, tx_power_w, noise_w: float, subchannel_bw_hz: float) -> np.ndarray:
    """Rate of each aligned amplitude, an array of any shape, at the power
    ``tx_power_w`` (a scalar, or an array that broadcasts against it).

    Each rate equals the scalar chain rate_bps(amplitude_snr(a, p, noise_w),
    bw) of tests/oracles.py bit for bit, because the float operations are
    the same: every square is ``np.float_power(a, 2.0)``, which calls the
    same libm ``pow`` as Python's ``float ** 2`` (numpy's ``a**2`` and
    ``np.square`` differ from it in the last bit for some values), then
    ``a2 * p / noise`` and ``bw * np.log2(1.0 + snr)`` as arrays, and
    numpy's array log2 equals its scalar log2 (numpy facts the tests check).
    """
    amplitude = np.asarray(amplitude, dtype=float)
    power = np.asarray(tx_power_w, dtype=float)
    if noise_w <= 0 or (power <= 0).any():
        raise ValueError("power and noise must be > 0")
    snr = np.float_power(amplitude, 2.0) * power / noise_w
    return subchannel_bw_hz * np.log2(1.0 + snr)


def aligned_rate_matrix(
    channels: ChannelRealization,
    user_ids,
    tx_power_w: np.ndarray,
    noise_w: float,
    subchannel_bw_hz: float,
) -> np.ndarray:
    """Per (user, RIS) rate at aligned phases; rows follow user_ids order.

    tx_power_w may be scalar or one entry per listed user.
    """
    ids = np.asarray(list(user_ids), dtype=int)
    p = np.broadcast_to(np.asarray(tx_power_w, dtype=float), ids.shape)
    return aligned_rates(channels.aligned_amplitude[ids], p[:, None], noise_w, subchannel_bw_hz)


def dump_channels(ch: ChannelRealization, path: str) -> None:
    """Persist a realization for replay (splits complex into re/im)."""
    payload = {
        "g_re": ch.g.real.tolist(),
        "g_im": ch.g.imag.tolist(),
        "h_re": ch.h.real.tolist(),
        "h_im": ch.h.imag.tolist(),
        "r_re": ch.r.real.tolist(),
        "r_im": ch.r.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def replay_channels(path: str) -> ChannelRealization:
    with open(path, "r", encoding="utf-8") as f:
        d = json.load(f)
    g = np.asarray(d["g_re"]) + 1j * np.asarray(d["g_im"])
    h = np.asarray(d["h_re"]) + 1j * np.asarray(d["h_im"])
    r = np.asarray(d["r_re"]) + 1j * np.asarray(d["r_im"])
    return ChannelRealization(g=g, h=h, r=r)
