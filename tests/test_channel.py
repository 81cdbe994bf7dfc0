"""Channel model tests: phase-alignment optimality against a random-search
oracle, Monte-Carlo moment checks against the closed-form path loss, and
the documented desk examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_mac import channel as chan
from ris_mac.scenario import (
    build_population,
    build_ris_inventory,
    db_to_linear,
    default_scenario,
)

from conftest import aligned_gain_magnitude, composite_gain, random_link, small_scenario


class TestEffectiveGain:
    def test_aligned_unit_case(self):
        ones = np.ones((1, 1, 1), dtype=complex)
        ch = chan.ChannelRealization(g=ones, h=ones, r=np.ones(1, dtype=complex))
        assert ch.aligned_amplitude[0, 0] == 2.0
        theta = chan.align_phases(1.0, np.ones(1), np.ones(1))
        assert composite_gain(1.0, np.ones(1), np.ones(1), theta) == pytest.approx(2.0)

    def test_random_phases_never_beat_triangle_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r, h, g = random_link(rng, 6)
            bound = aligned_gain_magnitude(r, h, g)
            theta = rng.uniform(0, 2 * np.pi, 6)
            assert abs(composite_gain(r, h, g, theta)) <= bound + 1e-12


class TestAlignPhases:
    def test_already_aligned_all_ones(self):
        got = chan.align_phases(1.0, np.ones(3), np.ones(3))
        assert np.allclose(got, 0.0)

    def test_documented_two_element_case(self):
        # arg r = pi/2, arg h = (0, pi), arg g = (pi/4, 0)
        r = 1j
        h = np.array([1.0, -1.0])
        g = np.array([np.exp(1j * np.pi / 4), 1.0])
        got = chan.align_phases(r, h, g)
        assert got == pytest.approx([np.pi / 4, 3 * np.pi / 2])

    def test_zero_magnitude_element_pins_phase_to_zero(self):
        got = chan.align_phases(1j, np.array([0.0, 1.0]), np.array([1.0, 1j]))
        assert got[0] == 0.0

    def test_returns_1d_float_array_in_range(self):
        # arg r - arg h - arg g = -1e-17 rounds to 2*pi under mod: a full turn
        assert np.mod(-1e-17, 2 * np.pi) == 2 * np.pi
        h = np.array([1.0, np.exp(1e-17j), 1j, -1.0])
        g = np.array([1.0, 1.0, 1.0, 1j])
        got = chan.align_phases(1.0 + 0j, h, g)
        assert isinstance(got, np.ndarray)
        assert got.ndim == 1 and got.shape == (4,)
        assert got.dtype == np.float64
        assert np.all(got >= 0.0) and np.all(got < 2 * np.pi)
        assert got[1] == 0.0
        assert got.tolist() == pytest.approx([0.0, 0.0, 3 * np.pi / 2, np.pi / 2])

    def test_achieves_triangle_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r, h, g = random_link(rng, 8)
            theta = chan.align_phases(r, h, g)
            gain = abs(composite_gain(r, h, g, theta))
            assert gain == pytest.approx(aligned_gain_magnitude(r, h, g), rel=1e-12)

    def test_beats_random_search_oracle(self):
        # 100 draws, 1000 random phase vectors each
        rng = np.random.default_rng(2)
        for _ in range(100):
            r, h, g = random_link(rng, 5)
            aligned = abs(composite_gain(r, h, g, chan.align_phases(r, h, g)))
            thetas = rng.uniform(0, 2 * np.pi, size=(1000, 5))
            gains = np.abs(r + (h * g) @ np.exp(1j * thetas.T))
            assert aligned >= gains.max() - 1e-12

    def test_monotone_in_elements(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r, h, g = random_link(rng, 7)
            full = aligned_gain_magnitude(r, h, g)
            fewer = aligned_gain_magnitude(r, h[:-1], g[:-1])
            assert full >= fewer


class TestSnrAndRate:
    def test_unit_case(self):
        assert chan.amplitude_snr(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_linear_in_power(self):
        rng = np.random.default_rng(4)
        r, h, g = random_link(rng, 4)
        amp = abs(composite_gain(r, h, g, chan.align_phases(r, h, g)))
        one = chan.amplitude_snr(amp, 1.0, 1e-3)
        two = chan.amplitude_snr(amp, 2.0, 1e-3)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_rejects_nonpositive_power_or_noise(self):
        with pytest.raises(ValueError):
            chan.amplitude_snr(2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            chan.amplitude_snr(2.0, 1.0, -1.0)

    def test_four_element_desk_instance(self):
        # hand computation: r = 0.3 - 0.4j, h_n g_n products summed at the
        # given phases, |gain|^2 * 2.0 / 0.5
        r = 0.3 - 0.4j
        h = np.array([1.0 + 0.0j, 0.5j, -0.25, 0.1 - 0.2j])
        g = np.array([0.2 - 0.1j, 0.4, 1.0j, -0.3 + 0.5j])
        theta = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        gain = (
            r
            + (1.0 + 0.0j) * np.exp(1j * 0.0) * (0.2 - 0.1j)
            + (0.5j) * np.exp(1j * np.pi / 2) * 0.4
            + (-0.25) * np.exp(1j * np.pi) * (1.0j)
            + (0.1 - 0.2j) * np.exp(1j * 3 * np.pi / 2) * (-0.3 + 0.5j)
        )
        want = abs(gain) ** 2 * 2.0 / 0.5
        got = chan.amplitude_snr(abs(composite_gain(r, h, g, theta)), 2.0, 0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rate_anchor_points(self):
        assert chan.rate_bps(0.0, 10e6) == 0.0
        assert chan.rate_bps(1.0, 10e6) == pytest.approx(1e7)
        assert chan.rate_bps(3.0, 10e6) == pytest.approx(2e7)

    @given(c=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_snr_scale_covariance(self, c):
        rng = np.random.default_rng(5)
        r, h, g = random_link(rng, 4)
        base = chan.amplitude_snr(aligned_gain_magnitude(r, h, g), 1.0, 1.0)
        scaled = chan.amplitude_snr(aligned_gain_magnitude(c * r, c * h, g), 1.0, 1.0)
        assert scaled == pytest.approx(c**2 * base, rel=1e-9)


    def test_array_rates_equal_the_scalar_chain(self):
        # aligned_rates squares as Python does, so each rate equals
        # rate_bps(amplitude_snr(a, p, noise), bw) bit for bit, also on the
        # amplitudes whose numpy square (a**2) is off in the last bit, at
        # powers where that bit reaches the rate
        meta = np.random.default_rng(2029)
        amp = meta.uniform(0.0, 1e-3, size=100_000)
        off = amp[amp**2 != np.array([a**2 for a in amp.tolist()])]
        assert off.size, "no amplitude whose numpy square differs from Python's"
        amp = np.concatenate((off, amp[: off.size]))
        noise, bw = 1e-12, 1e7
        for power in (1e-6, 1e-4, 1e-2):
            want = [chan.rate_bps(chan.amplitude_snr(a, power, noise), bw) for a in amp.tolist()]
            assert chan.aligned_rates(amp, power, noise, bw).tolist() == want
        # a (users, surfaces) block with one power per user
        block = amp[: amp.size // 2 * 2].reshape(-1, 2)
        power = meta.uniform(1e-6, 1e-2, size=(block.shape[0], 1))
        want = [
            [chan.rate_bps(chan.amplitude_snr(a, p, noise), bw) for a in row]
            for row, p in zip(block.tolist(), power[:, 0].tolist())
        ]
        assert chan.aligned_rates(block, power, noise, bw).tolist() == want

    def test_array_rates_reject_nonpositive_power_or_noise(self):
        with pytest.raises(ValueError):
            chan.aligned_rates(np.ones(3), np.array([1.0, 0.0, 1.0]), 1.0, 1e6)
        with pytest.raises(ValueError):
            chan.aligned_rates(np.ones(3), 1.0, 0.0, 1e6)


class TestDrawChannels:
    def test_deterministic_per_seed(self):
        s = small_scenario()
        a = chan.draw_channels(s, 42)
        b = chan.draw_channels(s, 42)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.r, b.r)
        c = chan.draw_channels(s, 43)
        assert not np.array_equal(a.r, c.r)

    def test_degenerate_geometry_rejected(self):
        s = small_scenario()
        pop = build_population(
            2, (1, 1, 0), positions=[s.bs_position, (10.0, 10.0, 0.0)]
        )
        bad = type(s)(
            population=pop, radio=s.radio, dcf=s.dcf, ris=s.ris,
            compute=s.compute, seed=1, area_side_m=100.0,
            bs_position=s.bs_position,
        )
        with pytest.raises(chan.DegenerateGeometryError):
            chan.draw_channels(bad, 1)

    def test_direct_link_moment_matches_pathloss_law(self):
        # 1e5 i.i.d. draws of the Rayleigh direct link at one position;
        # E|r|^2 must sit within 2% of the closed-form path loss
        n = 100_000
        pos = (25.0, 25.0, 0.0)
        pop = build_population(n, (0, 1, 0), positions=[pos] * n)
        scen = default_scenario(total_users=4, seed=1)
        scen = type(scen)(
            population=pop, radio=scen.radio, dcf=scen.dcf,
            ris=build_ris_inventory(1, 1, scen.radio.num_subchannels),
            compute=scen.compute, seed=1, area_side_m=50.0,
            bs_position=scen.bs_position,
        )
        ch = chan.draw_channels(scen, 9)
        d = np.linalg.norm(np.asarray(pos) - np.asarray(scen.bs_position))
        want = 10 ** (scen.radio.pathloss_ref_db / 10) * d ** (-scen.radio.pathloss_exp_nlos)
        got = float(np.mean(np.abs(ch.r) ** 2))
        assert got == pytest.approx(want, rel=0.02)

    def test_reflect_link_moment_matches_pathloss_law(self):
        n = 100_000
        pos = (25.0, 25.0, 0.0)
        pop = build_population(n, (0, 1, 0), positions=[pos] * n)
        scen = default_scenario(total_users=4, seed=1)
        scen = type(scen)(
            population=pop, radio=scen.radio, dcf=scen.dcf,
            ris=build_ris_inventory(1, 1, scen.radio.num_subchannels),
            compute=scen.compute, seed=1, area_side_m=50.0,
            bs_position=scen.bs_position,
        )
        ch = chan.draw_channels(scen, 10)
        d = np.linalg.norm(np.asarray(pos) - np.asarray(scen.ris.positions[0]))
        want = 10 ** (scen.radio.pathloss_ref_db / 10) * d ** (-scen.radio.pathloss_exp_los)
        got = float(np.mean(np.abs(ch.g[:, 0, 0]) ** 2))
        assert got == pytest.approx(want, rel=0.02)

    def test_dump_replay_round_trip(self, tmp_path):
        s = small_scenario()
        ch = chan.draw_channels(s, 5)
        path = str(tmp_path / "channels.json")
        chan.dump_channels(ch, path)
        back = chan.replay_channels(path)
        assert np.allclose(back.g, ch.g)
        assert np.allclose(back.h, ch.h)
        assert np.allclose(back.r, ch.r)
        for a, b in ((back.g, ch.g), (back.h, ch.h), (back.r, ch.r)):
            assert np.array_equal(a, b)
        # the whole-array amplitude of the replayed links is the drawn,
        # streamed one
        assert back.aligned_amplitude.tobytes() == ch.aligned_amplitude.tobytes()

    def test_quasi_static_repeat_snr(self):
        s = small_scenario()
        ch = chan.draw_channels(s, 6)
        r, h, g = ch.r[0], ch.h[0, 0], ch.g[0, 0]
        gains = [composite_gain(r, h, g, chan.align_phases(r, h, g)) for _ in range(2)]
        one, two = (chan.amplitude_snr(abs(x), 0.01, 1e-12) for x in gains)
        assert one == two


def _old_aligned_rate_matrix(channels, user_ids, tx_power_w, noise_w, bw_hz):
    """The copy-based form aligned_rate_matrix had before the cached
    amplitude, with its rates taken by the one rate definition."""
    ids = np.asarray(list(user_ids), dtype=int)
    p = np.broadcast_to(np.asarray(tx_power_w, dtype=float), ids.shape)
    amp = np.abs(channels.r[ids])[:, None] + np.sum(
        np.abs(channels.h[ids]) * np.abs(channels.g[ids]), axis=2
    )
    return chan.aligned_rates(amp, p[:, None], noise_w, bw_hz)


class TestAlignedAmplitude:
    @pytest.fixture(params=[128, 512], ids=["reference", "512-elements"], scope="class")
    def realization(self, request):
        s = default_scenario(elements_per_ris=request.param)
        return s, chan.draw_channels(s, 1)

    def test_equals_scalar_gain_magnitude_exactly(self, realization):
        _, ch = realization
        amp = ch.aligned_amplitude
        num_users, num_ris = amp.shape
        assert ch.r.shape == (num_users,) and ch.h.shape[:2] == (num_users, num_ris)
        for k in range(num_users):
            for m in range(num_ris):
                assert amp[k, m] == aligned_gain_magnitude(ch.r[k], ch.h[k, m], ch.g[k, m])

    def test_computed_once_per_realization(self, realization):
        _, ch = realization
        assert ch.aligned_amplitude is ch.aligned_amplitude

    def test_rate_matrix_equals_copy_based_formula_exactly(self, realization):
        s, ch = realization
        radio = s.radio
        rng = np.random.default_rng(3)
        num_users = ch.aligned_amplitude.shape[0]
        ids = rng.permutation(num_users)[: num_users // 2]
        for power in (radio.tx_power_mobile_w, rng.uniform(1e-4, 1e-1, size=ids.size)):
            got = chan.aligned_rate_matrix(ch, ids, power, radio.noise_w, radio.subchannel_bw_hz)
            want = _old_aligned_rate_matrix(ch, ids, power, radio.noise_w, radio.subchannel_bw_hz)
            assert np.array_equal(got, want)


def _expression_form_draw(scenario, rng_seed):
    """(g, h, r) from draw_channels' geometry with rician written as the
    single expression amp * (los + s * (re + 1j * im)), with no buffer reuse."""
    radio, ris = scenario.radio, scenario.ris
    users = np.asarray(scenario.population.positions, dtype=float).reshape(-1, 3)
    bs = np.asarray(scenario.bs_position, dtype=float)
    surfaces = np.asarray(ris.positions, dtype=float).reshape(ris.num_ris, 3)
    size = (users.shape[0], ris.num_ris, ris.elements_per_ris)
    rng = np.random.default_rng(rng_seed)
    kf = db_to_linear(radio.rician_k_factor_db)

    def rician(dist, exponent):
        amp = np.sqrt(chan._pathloss_power(dist, exponent, radio.pathloss_ref_db))
        los = np.sqrt(kf / (kf + 1.0)) * np.exp(-1j * chan.TWO_PI * dist / radio.wavelength_m)
        scatter = np.sqrt(1.0 / (2.0 * (kf + 1.0))) * (
            rng.standard_normal(size) + 1j * rng.standard_normal(size)
        )
        return amp[..., None] * (los[..., None] + scatter)

    g = rician(np.linalg.norm(users[:, None, :] - surfaces[None, :, :], axis=-1),
               radio.pathloss_exp_los)
    h = rician(np.broadcast_to(np.linalg.norm(surfaces - bs, axis=-1), size[:2]),
               radio.pathloss_exp_los)
    amp_direct = np.sqrt(chan._pathloss_power(
        np.linalg.norm(users - bs, axis=-1), radio.pathloss_exp_nlos, radio.pathloss_ref_db
    ))
    r = amp_direct * np.sqrt(0.5) * (
        rng.standard_normal(size[0]) + 1j * rng.standard_normal(size[0])
    )
    return g, h, r


class TestDrawBytes:
    @pytest.mark.parametrize("elements", [128, 512])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_in_place_build_equals_expression_form(self, elements, seed):
        s = default_scenario(elements_per_ris=elements)
        ch = chan.draw_channels(s, seed)
        g, h, r = _expression_form_draw(s, seed)
        assert ch.g.tobytes() == g.tobytes()
        assert ch.h.tobytes() == h.tobytes()
        assert ch.r.tobytes() == r.tobytes()

    @pytest.mark.parametrize("block", [1, 777, 4096])
    def test_blocked_draws_equal_whole_array_draws(self, monkeypatch, block):
        s = default_scenario(elements_per_ris=128)
        g, h, r = _expression_form_draw(s, 5)
        monkeypatch.setattr(chan, "BLOCK_VALUES", block)
        ch = chan.draw_channels(s, 5)
        assert ch.g.tobytes() == g.tobytes()
        assert ch.h.tobytes() == h.tobytes()
        assert ch.r.tobytes() == r.tobytes()

    @pytest.mark.parametrize("block", [1, 300, 1 << 17])
    def test_blocked_aligned_amplitude_equals_whole_array_form(self, monkeypatch, block):
        monkeypatch.setattr(chan, "BLOCK_VALUES", block)
        ch = chan.draw_channels(default_scenario(elements_per_ris=128), 2)
        want = np.abs(ch.r)[:, None] + (np.abs(ch.h) * np.abs(ch.g)).sum(axis=2)
        assert ch.aligned_amplitude.tobytes() == want.tobytes()

    @pytest.mark.parametrize("elements", [1, 3, 128, 300])
    @pytest.mark.parametrize("num_ris", [1, 2, 3, 4])
    def test_streamed_amplitude_equals_whole_array_form(self, monkeypatch, num_ris, elements):
        for block in (1, 777, chan.BLOCK_VALUES):
            monkeypatch.setattr(chan, "BLOCK_VALUES", block)
            for users in (0, 1, 7, 50):
                s = default_scenario(total_users=users, num_ris=num_ris, elements_per_ris=elements)
                ch = chan.draw_channels(s, users + 1)
                whole = chan.ChannelRealization(g=ch.g, h=ch.h, r=ch.r).aligned_amplitude
                assert ch.aligned_amplitude.shape == (users, num_ris)
                assert ch.aligned_amplitude.tobytes() == whole.tobytes()

    def test_reflect_arrays_are_writable_contiguous_complex(self):
        ch = chan.draw_channels(default_scenario(), 1)
        for a in (ch.g, ch.h):
            assert a.dtype == np.complex128
            assert a.flags.c_contiguous and a.flags.writeable

    def test_no_users_gives_empty_amplitudes_and_links(self):
        s = default_scenario(total_users=0)
        ch = chan.draw_channels(s, 1)
        assert ch.aligned_amplitude.shape == (0, s.ris.num_ris)
        for a in (ch.g, ch.h):
            assert a.shape == (0, s.ris.num_ris, s.ris.elements_per_ris)
            assert a.size == 0
        assert ch.r.shape == (0,)

    def test_links_are_built_once_and_only_when_read(self, monkeypatch):
        builds = []
        draw = chan._draw

        def counted(scenario, rng_seed, links=False):
            builds.append(links)
            return draw(scenario, rng_seed, links)

        monkeypatch.setattr(chan, "_draw", counted)
        ch = chan.draw_channels(small_scenario(), 4)
        assert ch.aligned_amplitude.shape == (10, 2)
        assert builds == [False]
        assert ch.g is ch.g and ch.h is ch.h
        assert builds == [False, True]


def _normal_count(s):
    return 4 * s.population.num_total * s.ris.num_ris * s.ris.elements_per_ris + 2 * s.population.num_total


def _assert_draw_is_expression_form(s, seed):
    ch = chan.draw_channels(s, seed)
    g, h, r = _expression_form_draw(s, seed)
    whole = chan.ChannelRealization(g=g, h=h, r=r).aligned_amplitude
    assert ch.aligned_amplitude.tobytes() == whole.tobytes()
    assert ch.r.tobytes() == r.tobytes()
    return ch, (g, h, r)


class TestNormalTape:
    """Draws that share a seed's prefix of normals equal the expression form
    bit for bit, whatever the memo held before them."""

    @pytest.fixture
    def tape(self, monkeypatch):
        tape = chan.NormalTape()
        monkeypatch.setattr(chan, "_TAPE", tape)
        return tape

    @pytest.mark.parametrize("users", [(10, 25, 40), (40, 25, 10), (25, 25, 10, 40, 40)],
                             ids=["ascending", "descending", "repeated"])
    @pytest.mark.parametrize("block", [7, chan.BLOCK_VALUES])
    def test_sweep_values_share_the_prefix(self, tape, monkeypatch, users, block):
        monkeypatch.setattr(chan, "BLOCK_VALUES", block)
        longest = 0
        for u in users:
            s = default_scenario(total_users=u, elements_per_ris=16)
            _assert_draw_is_expression_form(s, 9)
            longest = max(longest, _normal_count(s))
            assert (tape.seed, tape.filled) == (9, longest)

    def test_interleaved_seeds_replace_the_memo(self, tape):
        for seed, u in ((3, 30), (4, 20), (3, 40), (3, 30)):
            s = default_scenario(total_users=u, elements_per_ris=16)
            _assert_draw_is_expression_form(s, seed)
            assert tape.seed == seed
        assert tape.filled == _normal_count(default_scenario(total_users=40, elements_per_ris=16))

    def test_a_count_equal_to_the_cap_fits_and_one_above_streams(self, monkeypatch):
        s = default_scenario(total_users=12, elements_per_ris=8)
        count = _normal_count(s)
        for cap, fits in ((count, True), (count - 1, False)):
            monkeypatch.setattr(chan, "MEMO_VALUES", cap)
            monkeypatch.setattr(chan, "_TAPE", chan.NormalTape())
            _assert_draw_is_expression_form(s, 5)
            assert chan._TAPE.values.size == cap
            assert chan._TAPE.filled == (count if fits else 0)

    def test_zero_users(self, tape):
        s = default_scenario(total_users=0)
        ch, (g, h, r) = _assert_draw_is_expression_form(s, 2)
        assert ch.aligned_amplitude.shape == (0, s.ris.num_ris)
        assert ch.g.shape == g.shape == (0, s.ris.num_ris, s.ris.elements_per_ris)
        assert tape.filled == 0

    def test_links_rebuilt_after_the_memo_moved_to_another_seed(self, tape):
        s = default_scenario(total_users=30, elements_per_ris=16)
        ch, (g, h, r) = _assert_draw_is_expression_form(s, 1)
        _assert_draw_is_expression_form(default_scenario(total_users=40, elements_per_ris=16), 2)
        assert tape.seed == 2
        assert ch.g.tobytes() == g.tobytes()
        assert ch.h.tobytes() == h.tobytes()
        assert tape.seed == 1

    def test_a_draw_above_the_cap_neither_reads_nor_grows_the_memo(self, monkeypatch):
        small = default_scenario(total_users=10, elements_per_ris=8)
        large = default_scenario(total_users=20, elements_per_ris=8)
        monkeypatch.setattr(chan, "MEMO_VALUES", _normal_count(small))
        tape = chan.NormalTape()
        monkeypatch.setattr(chan, "_TAPE", tape)
        chan.draw_channels(small, 1)
        held = tape.values.copy()

        def no_read(seed, count):
            raise AssertionError("the memo was read")

        monkeypatch.setattr(tape, "prefix", no_read)
        for seed in (1, 2):
            ch, (g, h, _) = _assert_draw_is_expression_form(large, seed)
            assert ch.g.tobytes() == g.tobytes() and ch.h.tobytes() == h.tobytes()
        assert (tape.seed, tape.filled) == (1, _normal_count(small))
        assert tape.values.tobytes() == held.tobytes()

    def test_the_memo_never_holds_more_than_its_cap(self, tape):
        for u, seed in ((50, 1), (200, 1), (800, 1), (200, 2)):
            chan.draw_channels(default_scenario(total_users=u), seed)
            assert tape.values.size == chan.MEMO_VALUES
            assert tape.filled <= chan.MEMO_VALUES
        with pytest.raises(ValueError):
            tape.prefix(2, chan.MEMO_VALUES + 1)

    def test_which_draws_fit(self):
        # fig5's largest draw (200 users, 2 x 128 elements) fits, three
        # surfaces do not, and static-heavy's smallest (800 users) streams
        assert _normal_count(default_scenario()) == 205_200 <= chan.MEMO_VALUES
        assert _normal_count(default_scenario(num_ris=3)) > chan.MEMO_VALUES
        assert _normal_count(default_scenario(total_users=800, ratio=(18, 1, 1))) == 820_800 > chan.MEMO_VALUES
