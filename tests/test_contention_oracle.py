"""The one-sort round engine against the per-channel loop it replaced.

contention_oracle.py holds that loop, drawing by the documented rule: a
word is the high 32 bits of one ``random_raw`` output, a draw below b is
(w * b) >> 32 with no rejection (each value's probability off by at most
b / 2^32 of itself), and each contender takes one word a round, a draw v
below its window times C_s whose quotient is its counter and remainder its
pick, so the engine's key (v << 32) | index sorts by counter, pick and
index.

Each case plans one frame and replays it through both engines from the
same seed; every event, the served and bits arrays and the four returned
counts must be equal, so the RNG stream, the tie order and the kept
windows all match the reference, and so must the contended bits each
engine sums in grant order.  The engine also replays each frame
unrecorded, as sweeps run it, and must match the reference on everything
but the (empty) event list.
Besides the reference DCF, two edge DCFs run: w_min = 1, whose stage-0
window of 1 leaves only the pick to draw, and max_backoff_stage = 0,
whose window never moves.
"""

import dataclasses
import functools

import pytest

from ris_mac import channel as chan
from ris_mac import dcf as dcfmod
from ris_mac import simulator as sim
from ris_mac.optimizer import joint_optimize
from ris_mac.scenario import (
    DcfParams,
    RadioParams,
    build_population,
    default_scenario,
    with_per_user_static_budget,
)

import contention_oracle


EDGE_DCFS = {
    "w_min_1": DcfParams(w_min=1, max_backoff_stage=6),
    "one_stage": DcfParams(w_min=15, max_backoff_stage=0),
}


def network(num_channels, num_ris, total_users=40, seed=1, dcf=DcfParams()):
    """A desk-scale network with ``num_channels`` subchannels; surface m sits
    on subchannel m % num_channels, so C_s = min(num_channels, num_ris)."""
    pop = build_population(total_users, (5, 4, 1), seed=seed)
    radio = with_per_user_static_budget(
        RadioParams(num_subchannels=num_channels, rate_min_bps=1e4), pop.num_static
    )
    return default_scenario(
        total_users=total_users, num_ris=num_ris, elements_per_ris=8, seed=seed, radio=radio,
        dcf=dcf,
    )


@functools.lru_cache(maxsize=None)
def planned(num_channels, num_ris, seed, dcf=DcfParams()):
    s = network(num_channels, num_ris, dcf=dcf)
    channels = chan.draw_channels(s, seed)
    return s, channels, joint_optimize(s, channels)


def both_engines(monkeypatch, scenario, channels, frame, alloc, mode, seed):
    """(engine, quiet, reference): the engine recorded and unrecorded, and
    the reference loop recorded."""
    engine = sim.run_frame(scenario, channels, frame, alloc, mode, seed, record=True)
    quiet = sim.run_frame(scenario, channels, frame, alloc, mode, seed)
    with monkeypatch.context() as m:
        m.setattr(sim, "_run_contention", contention_oracle._run_contention)
        reference = sim.run_frame(scenario, channels, frame, alloc, mode, seed, record=True)
    return engine, quiet, reference


def assert_same(engine, quiet, reference):
    assert engine.events == reference.events
    assert quiet.events == []
    for trace in (engine, quiet):
        assert trace.served.tolist() == reference.served.tolist()
        assert trace.bits.tolist() == reference.bits.tolist()
        for name in ("n_r_measured", "collisions", "grant_shortfall", "contenders_left",
                     "throughput_contended_bps"):
            assert getattr(trace, name) == getattr(reference, name), name


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("mode", sim.MODES)
@pytest.mark.parametrize("csi", [False, True], ids=["uniform", "csi"])
@pytest.mark.parametrize("num_ris", [1, 2, 4])
@pytest.mark.parametrize("num_channels", [1, 2, 3, 4])
def test_engine_matches_reference_loop(monkeypatch, num_channels, num_ris, csi, mode, seed):
    s, channels, plan = planned(num_channels, num_ris, seed)
    s = dataclasses.replace(s, csi_best_channel=csi)
    frame, alloc = sim.plan_mode(s, channels, plan, mode)
    engine, quiet, reference = both_engines(monkeypatch, s, channels, frame, alloc, mode, seed)
    assert_same(engine, quiet, reference)
    if mode != "scheme1":
        assert reference.n_r_measured > 0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("mode", sim.MODES)
@pytest.mark.parametrize("csi", [False, True], ids=["uniform", "csi"])
@pytest.mark.parametrize("num_channels", [1, 2])
@pytest.mark.parametrize("dcf_name", sorted(EDGE_DCFS))
def test_edge_dcf_matches_reference_loop(monkeypatch, dcf_name, num_channels, csi, mode, seed):
    s, channels, plan = planned(num_channels, 2, seed, EDGE_DCFS[dcf_name])
    s = dataclasses.replace(s, csi_best_channel=csi)
    frame, alloc = sim.plan_mode(s, channels, plan, mode)
    engine, quiet, reference = both_engines(monkeypatch, s, channels, frame, alloc, mode, seed)
    assert_same(engine, quiet, reference)
    if mode != "scheme1":
        assert reference.n_r_measured > 0 and reference.collisions > 0


def test_grant_shortfall_matches_reference_loop(monkeypatch, fresh_schedules):
    # the set-up of test_grant_shortfall_is_handed_back: one occupied
    # channel while the recursion asks for two serves a round
    from conftest import small_scenario

    s = small_scenario(total_users=8, seed=22, elements=4)
    s = dataclasses.replace(s, csi_best_channel=True)
    ch = chan.draw_channels(s, 22)
    h = ch.h.copy()
    h[:, list(s.ris.subchannel_of_ris).index(1), :] = 0.0
    ch = chan.ChannelRealization(g=ch.g, h=h, r=ch.r)
    frame, alloc = sim.plan_scheme2(s, 50 * dcfmod.handshake_time(s.dcf))
    monkeypatch.setattr(dcfmod, "round_params", lambda n, c, w, l: (0.1, 0.0, 1.0))
    engine, quiet, reference = both_engines(monkeypatch, s, ch, frame, alloc, "scheme2", 22)
    assert reference.grant_shortfall > 0
    assert_same(engine, quiet, reference)


@pytest.mark.parametrize("total_users", [3, 4, 6])
def test_guard_shortfall_matches_reference_loop(monkeypatch, total_users):
    # the starvation guard asks for two serves a round while one channel is
    # occupied; unlike the patched round_params above, P_ch here depends on
    # the remaining contenders, so the carried shortfall moves the pacing
    from conftest import guard_shortfall_cell

    s, ch, frame, alloc, _ = guard_shortfall_cell(total_users)
    engine, quiet, reference = both_engines(monkeypatch, s, ch, frame, alloc, "scheme2", 22)
    assert reference.grant_shortfall > 0 and reference.served.all()
    assert_same(engine, quiet, reference)


@pytest.mark.parametrize("csi", [False, True], ids=["uniform", "csi"])
def test_long_frame_matches_reference_loop(monkeypatch, csi):
    # 300 contenders on 2 channels: 871 rounds, whose words run through
    # about 50 refills of the engine's read-ahead buffer
    s = dataclasses.replace(network(2, 2, total_users=300, seed=3), csi_best_channel=csi)
    channels = chan.draw_channels(s, 3)
    n_r = dcfmod.contention_cascade(300, 2, s.dcf).n_r
    frame, alloc = sim.plan_scheme2(s, n_r * dcfmod.handshake_time(s.dcf))
    engine, quiet, reference = both_engines(monkeypatch, s, channels, frame, alloc, "scheme2", 3)
    assert_same(engine, quiet, reference)
    assert reference.n_r_measured > 300 and reference.served.all()
