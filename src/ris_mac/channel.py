"""Stochastic channel realizations, SNR, and optimal per-element phases.

Each user sees a direct user-BS link plus, per surface, a cascaded
user-RIS-BS reflect path.  A realization is frozen for the duration of a
frame (quasi-static fading); every function here is pure, so repeated
evaluations on the same realization are bit-identical.
"""

from __future__ import annotations

import functools
import json
import mmap
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, db_to_linear

MIN_LINK_DISTANCE_M = 0.1
TWO_PI = 2.0 * np.pi
# Scratch buffers for work on the (U, M, N) arrays hold at most this many
# float64 values (1 MiB), so building a realization and its aligned
# amplitudes needs g and h plus a fixed slack, not whole-array temporaries.
BLOCK_VALUES = 1 << 17


class DegenerateGeometryError(ValueError):
    """A link distance fell below the path-loss model's validity floor."""


@dataclass(frozen=True)
class ChannelRealization:
    """Complex gains for one frame.

    g[k, m, :]  user k -> RIS m, one entry per element
    h[k, m, :]  RIS m -> BS as seen by user k's transmission
    r[k]        direct user k -> BS
    """

    g: np.ndarray
    h: np.ndarray
    r: np.ndarray

    @property
    def num_users(self) -> int:
        return self.r.shape[0]

    @property
    def num_ris(self) -> int:
        return self.g.shape[1]

    @property
    def num_elements(self) -> int:
        return self.g.shape[2]

    @functools.cached_property
    def aligned_amplitude(self) -> np.ndarray:
        """(U, M) phase-aligned amplitudes |r_k| + sum_n |h_kmn||g_kmn|.

        Power-independent, so it is computed once per realization; entry
        [k, m] equals aligned_gain_magnitude(r[k], h[k, m], g[k, m]).  The
        users are taken in blocks of at most BLOCK_VALUES reflect terms;
        each row sums on its own, so the blocks change no bit.
        """
        n_users, n_ris, n_el = self.h.shape
        reflect_sum = np.empty((n_users, n_ris))
        step = max(1, BLOCK_VALUES // max(1, n_ris * n_el))
        for lo in range(0, n_users, step):
            reflect = np.abs(self.h[lo : lo + step])
            reflect *= np.abs(self.g[lo : lo + step])
            reflect.sum(axis=2, out=reflect_sum[lo : lo + step])
        return np.abs(self.r)[:, None] + reflect_sum


@dataclass(frozen=True)
class PhaseConfig:
    """Unit-amplitude reflection phases for one user-RIS pair, radians in
    [0, 2*pi)."""

    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.ndim != 1:
            raise ValueError("theta must be a 1-D vector")
        if np.any(th < 0.0) or np.any(th >= TWO_PI):
            raise ValueError("phases must lie in [0, 2*pi)")

    def coefficients(self) -> np.ndarray:
        return np.exp(1j * self.theta)


def _mapped_zeros(shape) -> np.ndarray:
    """A complex array in its own anonymous private mapping, zero-filled.

    g and h are the only large arrays of a sweep.  From malloc they land in
    the heap or in a mapping depending on its adaptive threshold, and a
    freed heap block stays resident while smaller live blocks sit above it,
    so a sweep's peak memory would depend on the allocation history.  A
    mapping of its own goes back to the OS as soon as the realization is
    dropped, so the peak is the largest realization plus what the rest of
    the program holds.
    """
    count = int(np.prod(shape))
    itemsize = np.dtype(complex).itemsize
    buf = mmap.mmap(-1, max(1, count) * itemsize, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=complex, count=count).reshape(shape)


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
    NLoS exponent.
    """
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

    rng = np.random.default_rng(rng_seed)
    kf = db_to_linear(radio.rician_k_factor_db)
    lam = radio.wavelength_m

    def rician(dist, exponent, size):
        # built in one buffer: the same draws, in the same order, through the
        # same ufuncs as amp * (los + s * (re + 1j * im)), so the bytes match.
        # The normals are drawn BLOCK_VALUES at a time into one scratch
        # buffer; numpy fills an ``out`` draw element by element, so the
        # blocks consume the stream as one whole-array draw does.
        amp = np.sqrt(_pathloss_power(dist, exponent, radio.pathloss_ref_db))
        los = np.sqrt(kf / (kf + 1.0)) * np.exp(-1j * TWO_PI * dist / lam)
        out = _mapped_zeros(size)
        flat = out.reshape(-1)
        scratch = np.empty(min(flat.size, BLOCK_VALUES))
        for part in (flat.real, flat.imag):
            for lo in range(0, flat.size, BLOCK_VALUES):
                block = scratch[: min(BLOCK_VALUES, flat.size - lo)]
                rng.standard_normal(out=block)
                part[lo : lo + block.size] = block
        out *= np.sqrt(1.0 / (2.0 * (kf + 1.0)))
        out += los[..., None]
        out *= amp[..., None]
        return out

    g = rician(d_user_ris, radio.pathloss_exp_los, (n_users, n_ris, n_el))
    h = rician(
        np.broadcast_to(d_ris_bs, (n_users, n_ris)),
        radio.pathloss_exp_los,
        (n_users, n_ris, n_el),
    )

    amp_direct = np.sqrt(
        _pathloss_power(d_direct, radio.pathloss_exp_nlos, radio.pathloss_ref_db)
    )
    r = amp_direct * np.sqrt(0.5) * (
        rng.standard_normal(n_users) + 1j * rng.standard_normal(n_users)
    )
    return ChannelRealization(g=g, h=h, r=r)


def effective_gain(r: complex, h: np.ndarray, g: np.ndarray, phases: PhaseConfig) -> complex:
    """Composite channel r + sum_n h_n * e^{j theta_n} * g_n."""
    h = np.asarray(h)
    g = np.asarray(g)
    if h.shape != g.shape or h.shape != phases.theta.shape:
        raise ValueError(
            "length mismatch: h %s, g %s, theta %s"
            % (h.shape, g.shape, phases.theta.shape)
        )
    return complex(r + np.sum(h * phases.coefficients() * g))


def align_phases(r: complex, h: np.ndarray, g: np.ndarray) -> PhaseConfig:
    """Co-phase every reflect element with the direct path.

    theta_n = (arg r - arg h_n - arg g_n) mod 2*pi makes each element's
    contribution add in amplitude, which attains the triangle-inequality
    maximum |r| + sum |h_n||g_n| of the composite gain.  Elements with a
    zero-magnitude coefficient contribute nothing, so their (undefined)
    phase is pinned to 0.
    """
    h = np.asarray(h)
    g = np.asarray(g)
    if h.shape != g.shape:
        raise ValueError("length mismatch: h %s vs g %s" % (h.shape, g.shape))
    theta = np.mod(np.angle(r) - np.angle(h) - np.angle(g), TWO_PI)
    theta = np.where((h == 0) | (g == 0), 0.0, theta)
    # mod can return 2*pi for angles within rounding of a full turn
    theta = np.where(theta >= TWO_PI, 0.0, theta)
    return PhaseConfig(theta=theta)


def aligned_gain_magnitude(r: complex, h: np.ndarray, g: np.ndarray) -> float:
    """|r| + sum |h_n||g_n|, the phase-aligned composite amplitude."""
    return float(np.abs(r) + np.sum(np.abs(h) * np.abs(g)))


def snr(
    r: complex,
    h: np.ndarray,
    g: np.ndarray,
    phases: PhaseConfig,
    tx_power_w: float,
    noise_w: float,
) -> float:
    """Linear receive SNR |r + h diag(e^{j theta}) g|^2 * P / sigma^2."""
    if tx_power_w <= 0:
        raise ValueError("tx_power_w must be > 0")
    if noise_w <= 0:
        raise ValueError("noise_w must be > 0")
    gain = effective_gain(r, h, g, phases)
    return abs(gain) ** 2 * tx_power_w / noise_w


def rate_bps(snr_linear: float, subchannel_bw_hz: float) -> float:
    """Shannon rate on one subchannel, (B/C) * log2(1 + SNR)."""
    if snr_linear < 0:
        raise ValueError("snr must be >= 0")
    return subchannel_bw_hz * np.log2(1.0 + snr_linear)


def amplitude_snr(amplitude: float, tx_power_w, noise_w) -> float:
    """Linear SNR amplitude^2 * P / sigma^2 of a composite amplitude."""
    if tx_power_w <= 0 or noise_w <= 0:
        raise ValueError("power and noise must be > 0")
    return float(amplitude) ** 2 * tx_power_w / noise_w


def aligned_snr(r, h, g, tx_power_w, noise_w) -> float:
    """SNR with the optimal phases applied, without materializing them."""
    return amplitude_snr(aligned_gain_magnitude(r, h, g), tx_power_w, noise_w)


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
    if ids.size == 0:
        return np.zeros((0, channels.num_ris))
    p = np.broadcast_to(np.asarray(tx_power_w, dtype=float), ids.shape)
    amp = channels.aligned_amplitude[ids]
    snr_km = amp**2 * p[:, None] / noise_w
    return subchannel_bw_hz * np.log2(1.0 + snr_km)


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
