"""Frames with and without an event trace.

run_frame sums each period's bits as it grants and builds TraceEvents only
when ``record`` is set.  A frame run both ways must give the same served
set, per-user bits, counts and period throughputs, compared with ``==``, and
measure_throughput over the recorded trace must give the figures run_frame
summed.  Sweeps record nothing: they build no TraceEvent at all.
"""

import dataclasses
import functools
import os

import pytest

from ris_mac import optimizer as opt
from ris_mac import simulator as sim
from ris_mac.channel import draw_channels
from ris_mac.experiments import parse_sweep, plan_cell, run_experiment
from ris_mac.scenario import classify_users, default_scenario, load_scenario, validate_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

FIGURES = (
    "n_r_measured", "collisions", "grants_dropped", "grant_shortfall", "contenders_left",
    "throughput_scheduled_bps", "throughput_contended_bps", "throughput_overall_bps",
)


def c4_scenario():
    return load_scenario(os.path.join(GOLDEN_DIR, "scenario_c4.json"))


def c4_two_per_channel():
    # scenario_c4's four surfaces bonded two to a subchannel, the higher
    # subchannel first, so each live subchannel carries two surfaces (M > C_s)
    s = c4_scenario()
    return dataclasses.replace(s, ris=dataclasses.replace(s.ris, subchannel_of_ris=(1, 1, 0, 0)))


NETWORKS = {"reference": default_scenario, "c4": c4_scenario, "c4_m_gt_c": c4_two_per_channel}


@functools.lru_cache(maxsize=None)
def planned(network, seed):
    s = NETWORKS[network]()
    return (s,) + plan_cell(s, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", sim.MODES)
@pytest.mark.parametrize("csi", [False, True], ids=["uniform", "csi"])
@pytest.mark.parametrize("network", ["reference", "c4"])
def test_recording_changes_no_figure(network, csi, mode, seed):
    s, channels, plan = planned(network, seed)
    s = dataclasses.replace(s, csi_best_channel=csi)
    frame, alloc = sim.plan_mode(s, channels, plan, mode)
    quiet = sim.run_frame(s, channels, frame, alloc, mode, seed)
    traced = sim.run_frame(s, channels, frame, alloc, mode, seed, record=True)
    assert quiet.events == [] and len(traced.events) > 0
    assert quiet.served.tolist() == traced.served.tolist()
    assert quiet.bits.tolist() == traced.bits.tolist()
    for name in FIGURES:
        assert getattr(quiet, name) == getattr(traced, name), name
    assert sim.measure_throughput(traced, frame) == (
        traced.throughput_scheduled_bps,
        traced.throughput_contended_bps,
        traced.throughput_overall_bps,
    )


def test_sweep_builds_no_trace_event(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a frame built a TraceEvent")

    monkeypatch.setenv("RIS_MAC_THREADS", "1")  # the patch does not reach pool workers
    monkeypatch.setattr(sim, "TraceEvent", refuse)
    s = default_scenario(total_users=100)
    rows = run_experiment(s, parse_sweep("users=50:100:50"), [1, 2], modes=sim.MODES)
    assert len(rows) == 6 and all(r["s_o_bps"] > 0 for r in rows)
    # the patch is live: a recording frame does reach it
    _, channels, plan = planned("reference", 1)
    with pytest.raises(AssertionError, match="TraceEvent"):
        sim.run_frame(default_scenario(), channels, plan.frame, plan.allocation, "proposed", 1,
                      record=True)


@pytest.mark.parametrize("csi", [False, True], ids=["uniform", "csi"])
@pytest.mark.parametrize("network", ["c4", "c4_m_gt_c"])
def test_surface_lists_reach_selection_ascending(monkeypatch, network, csi):
    # a frame's surface table (optimizer.best_surfaces, distributed_ris_select's
    # rule) breaks ties to the first surface of each list it is given, which
    # is the lowest id only while its lists come in ascending order
    lists = []
    select = opt.best_surfaces

    def spy(channels, user_ids, surface_lists, *rest):
        lists.extend(list(ids) for ids in surface_lists)
        return select(channels, user_ids, surface_lists, *rest)

    for seed in (1, 2):
        s, channels, plan = planned(network, seed)
        assert validate_scenario(s).ok
        s = dataclasses.replace(s, csi_best_channel=csi)
        with monkeypatch.context() as m:
            m.setattr(opt, "best_surfaces", spy)
            for mode in ("proposed", "scheme2"):
                frame, alloc = sim.plan_mode(s, channels, plan, mode)
                sim.run_frame(s, channels, frame, alloc, mode, seed)
    assert lists and all(ids == sorted(ids) for ids in lists)
    if network == "c4_m_gt_c":
        assert {tuple(ids) for ids in lists} == {(0, 1), (2, 3)}


def test_static_users_and_contenders_take_one_surface_on_a_tie():
    # on c4_m_gt_c, each user's two surfaces on a subchannel get one aligned
    # amplitude, an exact tie on every subchannel.  Static users, contenders
    # and the plan's mobile users take their surface by one rule
    # (optimizer.best_surfaces), so all of them keep the first surface of
    # each pair, and a static user that contends on its planned subchannel
    # is granted the surface it was planned on
    s = c4_two_per_channel()
    assert s.ris.surfaces_by_subchannel == ((2, 3), (0, 1))
    channels = draw_channels(s, 1)
    amp = channels.aligned_amplitude
    for first, second in s.ris.surfaces_by_subchannel:
        amp[:, second] = amp[:, first]
    plan = opt.joint_optimize(s, channels)
    planned_on = plan.allocation.ris_of_user.tolist()
    static_ids, mobile_ids = classify_users(s.population)
    assert {planned_on[k] for k in static_ids} == {planned_on[k] for k in mobile_ids} == {2, 0}
    frame, alloc = sim.plan_scheme2(s, plan.frame.t2_s)
    trace = sim.run_frame(s, channels, frame, alloc, "scheme2", 1, record=True)
    grants = [e for e in trace.events if e.kind == "data"]
    assert {e.ris for e in grants} == {2, 0}
    sub_of = s.ris.subchannel_of_ris
    same_channel = [e for e in grants
                    if e.user in static_ids and sub_of[planned_on[e.user]] == e.channel]
    assert same_channel and all(e.ris == planned_on[e.user] for e in same_channel)
