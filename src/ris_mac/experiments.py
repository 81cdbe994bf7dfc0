"""Seeded experiment sweeps over the scenario knobs, one frame per cell.

A sweep job is one seed: it draws one channel realization and plans the
proposed frame once, as the BS does in its computing period.  A job covers
one axis value, except on the split axis (beta-alpha): the split is a frame
timing on top of the plan, so one job covers every split value and re-times
its plan for each.  Every mode then runs one cell (axis value, mode, seed)
against the shared realization and plan; the benchmark modes reuse the
proposed transmission period (equal channel time).  A cell reports
throughput, fairness, and contention counters.

Jobs run seed-major: every value of one seed, then of the next.  A seed's
draws at all its values then read one shared prefix of its normals from
the channel module's memo (channel.NormalTape, 2 MiB), generated once; a
draw uses the memo when its normals fit (fig5 and fig9 at every value,
fig7 and fig8 at 1-2 surfaces, not the 800-user static-heavy sweep).  Jobs
are independent and no value depends on the memo's state, so parallel
execution and the job order cannot change the results; rows are gathered
in (value, mode, seed) order.  A seed's contention frames share runs the
same way, through the simulator's memo of the seed's contention runs
(simulator.memo_cut), each frame cutting its run at its own budget.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from . import channel as chan
from . import dcf as dcfmod
from . import simulator as sim
from .optimizer import DegenerateFrameError, fairness_floor, joint_optimize, retime
from .scenario import (
    Scenario,
    build_population,
    build_ris_inventory,
    classify_users,
    with_per_user_static_budget,
)

RESULT_COLUMNS = (
    "axis",
    "value",
    "mode",
    "seeds",
    "s_s_bps",
    "s_c_bps",
    "s_o_bps",
    "s_o_std_bps",
    "s_o_analytic_bps",
    "served_static",
    "served_mobile",
    "served_new",
    "collisions",
    "n_r_measured",
    "n_r_analytic",
    "beta_alpha",
)

SWEEP_AXES = ("users", "ratio", "ris", "elements", "beta-alpha", "point")


class SweepSpecError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple

    def __str__(self) -> str:
        vals = ",".join(str(v) for v in self.values)
        return "%s=%s" % (self.axis, vals)


def _number(text: str) -> float:
    """One finite number of a sweep spec; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SweepSpecError("sweep entries must be finite numbers, got %r" % text.strip())
    return value


def parse_sweep(spec: str) -> SweepSpec:
    """Parse an axis spec.

    users=50:200:25       integer range, inclusive of the stop when hit
    ratio=6:3:1,5:4:1     list of static:mobile:new triples
    ris=1:4:1             integer range over surface count
    elements=32:128:32    integer range over per-surface elements
    beta-alpha=0.6:1.4:0.2  multipliers applied to the optimal split
    point                  single cell at the template scenario
    """
    spec = spec.strip()
    if spec == "point":
        return SweepSpec(axis="point", values=(0,))
    if "=" not in spec:
        raise SweepSpecError("sweep spec needs axis=values, got %r" % spec)
    axis, _, rest = spec.partition("=")
    axis = axis.strip()
    if axis not in SWEEP_AXES:
        raise SweepSpecError("unknown sweep axis %r (want one of %s)" % (axis, ", ".join(SWEEP_AXES)))
    if axis == "ratio":
        values = []
        for part in rest.split(","):
            nums = tuple(_number(x) for x in part.strip().split(":"))
            if len(nums) != 3:
                raise SweepSpecError("ratio entries are s:m:n triples, got %r" % part)
            values.append(nums)
        return SweepSpec(axis=axis, values=tuple(values))
    if "," in rest:
        nums = tuple(_number(x) for x in rest.split(","))
    else:
        parts = [_number(x) for x in rest.split(":")]
        if len(parts) != 3:
            raise SweepSpecError("range specs are start:stop:step, got %r" % rest)
        start, stop, step = parts
        if step <= 0:
            raise SweepSpecError("step must be > 0")
        nums = []
        v = start
        while v <= stop + 1e-9:
            nums.append(round(v, 10))
            v += step
        nums = tuple(nums)
    if axis in ("users", "ris", "elements"):
        if any(v < 0 for v in nums):
            raise SweepSpecError("%s axis counts must be >= 0, got %r" % (axis, rest))
        if not all(float(v).is_integer() for v in nums):
            raise SweepSpecError("%s axis counts must be whole numbers, got %r" % (axis, rest))
        nums = tuple(int(v) for v in nums)
    return SweepSpec(axis=axis, values=nums)


def scenario_for_value(template: Scenario, axis: str, value) -> Scenario:
    """Materialize the sweep point.  A split value keeps the template, whose
    plan the job re-times; a split needs a scheduled period, so a template
    with no static user fails here, before any channel draw."""
    if axis == "point":
        return template
    if axis == "beta-alpha":
        if not classify_users(template.population)[0]:
            raise DegenerateFrameError("beta/alpha override needs a scheduled period")
        return template
    if axis == "users":
        # the template's own class counts are the ratio, so its mix stays
        tpl = template.population
        mix = (tpl.num_static, tpl.num_existing - tpl.num_static, tpl.num_new_mobile)
        pop = build_population(
            int(value), ratio=mix, area_side_m=template.area_side_m, seed=template.seed
        )
        radio = with_per_user_static_budget(template.radio, pop.num_static)
        return replace(template, population=pop, radio=radio)
    if axis == "ratio":
        pop = build_population(
            template.population.num_total,
            ratio=tuple(value),
            area_side_m=template.area_side_m,
            seed=template.seed,
        )
        radio = with_per_user_static_budget(template.radio, pop.num_static)
        return replace(template, population=pop, radio=radio)
    if axis == "ris":
        inv = build_ris_inventory(
            int(value),
            template.ris.elements_per_ris,
            template.radio.num_subchannels,
            template.area_side_m,
        )
        return replace(template, ris=inv)
    if axis == "elements":
        inv = build_ris_inventory(
            template.ris.num_ris,
            int(value),
            template.radio.num_subchannels,
            template.area_side_m,
        )
        return replace(template, ris=inv)
    raise SweepSpecError("unknown axis %r" % axis)


def plan_cell(scenario: Scenario, seed: int) -> tuple:
    """The (channels, plan) every mode of a (scenario, seed) shares."""
    channels = chan.draw_channels(scenario, seed)
    return channels, joint_optimize(scenario, channels)


def run_cell(scenario: Scenario, mode: str, seed: int, events=None, planned=None) -> dict:
    """One (scenario, mode, seed) frame; returns the per-cell measurements.

    ``planned`` is plan_cell(scenario, seed), or the same with its plan
    re-timed, computed here when not given.  The frame records its
    TraceEvents only when a list is passed as ``events``, which is then
    extended with them; sweeps pass none, so their frames build no events.
    """
    channels, plan = planned or plan_cell(scenario, seed)
    frame, alloc = sim.plan_mode(scenario, channels, plan, mode)
    trace = sim.run_frame(scenario, channels, frame, alloc, mode, seed, record=events is not None)
    if events is not None:
        events.extend(trace.events)
    fairness = sim.measure_fairness(trace)
    ratio = frame.beta / frame.alpha if frame.alpha > 0 else float("inf")
    return {
        "mode": mode,
        "seed": seed,
        "s_s_bps": trace.throughput_scheduled_bps,
        "s_c_bps": trace.throughput_contended_bps,
        "s_o_bps": trace.throughput_overall_bps,
        "s_o_analytic_bps": plan.throughput_overall_bps if mode == "proposed" else float("nan"),
        "served_static": fairness["static"],
        "served_mobile": fairness["mobile"],
        "served_new": fairness["new"],
        "collisions": trace.collisions,
        "n_r_measured": trace.n_r_measured,
        # the proposed plan's cascade in every mode's row: scheme1 and
        # scheme2 have no analytic round count (see the README model notes)
        "n_r_analytic": plan.cascade.n_r,
        "beta_alpha": ratio,
    }


def _seed_job(args):
    """One seed over ``values``: plan once, then for each value one cell per
    mode, in mode order.  Each split value re-times the plan."""
    template, axis, values, modes, seed = args
    scenario = scenario_for_value(template, axis, values[0])
    channels, plan = plan_cell(scenario, seed)
    out = []
    for value in values:
        timed = retime(plan, scenario, channels, value) if axis == "beta-alpha" else plan
        out.append([run_cell(scenario, mode, seed, planned=(channels, timed)) for mode in modes])
    return out


def _mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _std(xs):
    xs = list(xs)
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return (sum((x - m) ** 2 for x in xs) / (len(xs) - 1)) ** 0.5


def max_workers() -> int:
    raw = os.environ.get("RIS_MAC_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_experiment(template: Scenario, sweep: SweepSpec, seeds, modes=("proposed",)) -> list:
    """Sweep x mode x seed grid; returns aggregated rows (stable order).

    A job is one seed over one value, or over every value of a split sweep,
    and carries the frozen template Scenario itself; its cells share one
    realization and plan.  Jobs are built seed-major, so a seed's draws
    share its memoized normals (see the module docstring).
    """
    seeds = list(seeds)
    if not seeds or len(set(seeds)) < len(seeds):
        # a repeated seed would be averaged as a second realization
        raise ValueError("need at least one seed, and no seed twice: %r" % seeds)
    modes = tuple(modes)
    if sweep.axis == "beta-alpha":
        groups = [tuple(sweep.values)]
    else:
        groups = [(value,) for value in sweep.values]
    jobs = [(template, sweep.axis, values, modes, seed) for seed in seeds for values in groups]
    workers = max_workers()
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # its import costs ~24 ms

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_seed_job, jobs))
    else:
        outcomes = [_seed_job(j) for j in jobs]

    cells_of = {
        (value, seed): cells
        for (_, _, values, _, seed), outcome in zip(jobs, outcomes)
        for value, cells in zip(values, outcome)
    }
    rows = []
    for value in sweep.values:
        value_repr = (
            ":".join(str(int(v)) if float(v).is_integer() else str(v) for v in value)
            if isinstance(value, tuple)
            else value
        )
        for i, mode in enumerate(modes):
            cells = [cells_of[value, seed][i] for seed in seeds]  # averaged in seed order
            row = {"axis": sweep.axis, "value": value_repr, "mode": mode, "seeds": len(cells)}
            for col in RESULT_COLUMNS[4:]:  # the cells' measurements, over seeds
                if col == "s_o_std_bps":
                    row[col] = _std(c["s_o_bps"] for c in cells)
                else:
                    row[col] = _mean(c[col] for c in cells)
            rows.append(row)
    return rows


FIGURE_PRESETS = {
    # throughput vs user count, all three MAC modes
    "fig5": {
        "sweep": "users=50:200:25",
        "modes": ("proposed", "scheme1", "scheme2"),
        "x": "value (total users)",
        "y": "s_o_bps",
    },
    # throughput vs the scheduled/contended split, one curve per class mix
    "fig6": {
        "sweep": "beta-alpha-rel=0.6:1.8:0.2",
        "ratios": ((6, 3, 1), (5, 4, 1), (3, 6, 1)),
        "x": "beta_alpha",
        "y": "s_o_bps",
    },
    # throughput vs surface count
    "fig7": {
        "sweep": "ris=1:4:1",
        "modes": ("proposed", "scheme1", "scheme2"),
        "x": "value (surfaces)",
        "y": "s_o_bps",
    },
    # throughput vs surface count, one curve per class mix (proposed only)
    "fig8": {
        "sweep": "ris=1:4:1",
        "ratios": ((6, 3, 1), (5, 4, 1), (3, 6, 1)),
        "x": "value (surfaces)",
        "y": "s_o_bps",
    },
    # served fraction per class mix, all three modes
    "fig9": {
        "sweep": "ratio=5:4:1,5:3:2,5:2:3",
        "modes": ("proposed", "scheme1", "scheme2"),
        "x": "value (ratio)",
        "y": "served_static/served_mobile/served_new",
    },
    # served fraction vs the split, one curve per class mix
    "fig10": {
        "sweep": "beta-alpha-rel=0.6:1.4:0.2",
        "ratios": ((6, 3, 1), (5, 4, 1), (3, 6, 1)),
        "x": "beta_alpha",
        "y": "served fraction (all classes)",
    },
}


def run_figure(name: str, template: Scenario, seeds) -> list:
    """Reproduce one of the six reference figures as a tidy result table."""
    if name not in FIGURE_PRESETS:
        raise SweepSpecError("unknown figure %r (want fig5..fig10)" % name)
    preset = FIGURE_PRESETS[name]
    rows = []
    if "ratios" in preset:
        rel = parse_sweep(preset["sweep"].replace("beta-alpha-rel", "beta-alpha"))
        for ratio in preset["ratios"]:
            scen = scenario_for_value(template, "ratio", ratio)
            if rel.axis == "beta-alpha":
                base = _optimal_beta_alpha(scen)
                sweep = SweepSpec(
                    axis="beta-alpha",
                    values=tuple(round(base * m, 12) for m in rel.values),
                )
            else:
                sweep = rel
            for row in run_experiment(scen, sweep, seeds, modes=("proposed",)):
                row["ratio"] = ":".join(str(x) for x in ratio)
                rows.append(row)
    else:
        sweep = parse_sweep(preset["sweep"])
        rows = run_experiment(template, sweep, seeds, modes=preset["modes"])
    return rows


def _optimal_beta_alpha(scenario: Scenario) -> float:
    static_ids, mobile_ids = classify_users(scenario.population)
    c = len(scenario.ris.subchannels)
    cascade = dcfmod.contention_cascade(len(mobile_ids), c, scenario.dcf)
    j = -(-len(static_ids) // c)
    if j == 0:
        return float("inf")
    return fairness_floor(cascade, j, scenario.dcf.data_slot_s)
