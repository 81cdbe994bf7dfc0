import numpy as np

from ris_mac.scenario import default_scenario


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
    import dataclasses

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
