"""The transportation solver in assign_ris_static against a min-cost matching.

The reference copies each of the C_s subchannel columns J times and solves
the square-ish X x (C_s*J) matching with scipy's linear_sum_assignment.  The
optimum is unique for continuous rates, so the column maps must agree
exactly; with ties only the objective is unique.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ris_mac import experiments as exp
from ris_mac import optimizer as opt
from ris_mac import simulator as sim
from ris_mac.scenario import default_scenario


def matching_reference(rates, num_slots):
    """(column_of_user, objective) from the J-fold min-cost matching."""
    x = rates.shape[0]
    rows, cols = linear_sum_assignment(np.repeat(-rates, num_slots, axis=1))
    col_of = np.empty(x, dtype=int)
    col_of[rows] = cols // num_slots
    return col_of, float(rates[np.arange(x), col_of].sum())


def assert_slots_compact(col_of, slot_of, num_cols, num_slots):
    """Each column holds at most J users on slots 0..n-1, in user-id order."""
    for c in range(num_cols):
        members = np.flatnonzero(col_of == c)
        assert members.size <= num_slots
        assert list(slot_of[members]) == list(range(members.size))


def overfull_start(rates, num_slots):
    """True when the best-column start breaks a capacity, so the repair runs."""
    return np.bincount(rates.argmax(axis=1), minlength=rates.shape[1]).max() > num_slots


def test_random_instances_match_matching():
    rng = np.random.default_rng(801)
    repaired = 0
    for _ in range(400):
        c = int(rng.integers(1, 6))
        x = int(rng.integers(1, 201))
        j = -(-x // c) + int(rng.integers(0, 3))
        rates = rng.uniform(0.5, 40.0, size=(x, c))
        col_of, slot_of, obj = opt.assign_ris_static(rates, j)
        ref_col, ref_obj = matching_reference(rates, j)
        assert np.array_equal(col_of, ref_col)
        assert obj == ref_obj
        assert_slots_compact(col_of, slot_of, c, j)
        repaired += overfull_start(rates, j)
    assert repaired > 100


def recorded_inputs(monkeypatch, cases):
    """Every (rate_matrix, J) that centralized_ris_config hands the solver
    while the proposed and scheme1 plans of ``cases`` are built."""
    seen = []
    solve = opt.assign_ris_static

    def record(rate_matrix, num_slots):
        seen.append((np.array(rate_matrix, dtype=float), num_slots))
        return solve(rate_matrix, num_slots)

    monkeypatch.setattr(opt, "assign_ris_static", record)
    for scenario, seed in cases:
        channels, plan = exp.plan_cell(scenario, seed)
        sim.plan_scheme1(scenario, channels, plan.frame.t2_s)
    monkeypatch.undo()
    return seen


def check_against_matching(seen):
    for rates, j in seen:
        col_of, slot_of, obj = opt.assign_ris_static(rates, j)
        ref_col, ref_obj = matching_reference(rates, j)
        assert np.array_equal(col_of, ref_col)
        assert obj == ref_obj
        assert_slots_compact(col_of, slot_of, rates.shape[1], j)


def test_static_heavy_realizations_match_matching(monkeypatch):
    scenario = default_scenario(total_users=800, ratio=(18, 1, 1))
    seen = recorded_inputs(monkeypatch, [(scenario, seed) for seed in (1, 2)])
    assert any(overfull_start(rates, j) for rates, j in seen)
    check_against_matching(seen)


@pytest.mark.parametrize("num_ris", [1, 2, 3, 4])
def test_fig7_realizations_match_matching(monkeypatch, num_ris):
    scenario = exp.scenario_for_value(default_scenario(), "ris", num_ris)
    seen = recorded_inputs(monkeypatch, [(scenario, seed) for seed in (1, 2)])
    assert seen
    check_against_matching(seen)


def test_tie_heavy_instances_reach_the_optimum():
    rng = np.random.default_rng(802)
    for trial in range(300):
        c = int(rng.integers(1, 6))
        x = int(rng.integers(1, 121))
        j = -(-x // c) + int(rng.integers(0, 2))
        if trial % 3 == 0:
            rates = np.repeat(rng.uniform(1.0, 9.0, size=(x, 1)), c, axis=1)  # all-equal rows
        else:
            rates = rng.integers(0, 4, size=(x, c)).astype(float)
        col_of, slot_of, obj = opt.assign_ris_static(rates, j)
        _, ref_obj = matching_reference(rates, j)
        assert obj == pytest.approx(ref_obj, abs=1e-9)
        assert_slots_compact(col_of, slot_of, c, j)
