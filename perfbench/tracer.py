"""Span tracing around the public boundaries of the ris_mac layers.

Nothing inside the package is instrumented: ``Tracer.install`` replaces each
traced function with a wrapper in every ris_mac module that holds a
reference to it, so names imported with ``from .x import f`` are patched
where they are looked up, not only where they are defined.

Spans are kept in memory as (name, start, end, parent, cell) and written out
once, at the end of the pass.  ``cell`` numbers the ``run_cell`` call a span
ran under (-1 outside any cell).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "ris_mac"
LAYERS = ("channel", "dcf", "optimizer", "simulator", "experiments", "scenario", "io")

# (module, function) pairs that get a span.  Per-user helpers called in
# inner loops (align_phases, snr, rate_bps) are left out on purpose: their
# time is charged to the caller's self time, which keeps the overhead small.
TRACED = (
    ("scenario", "default_scenario"),
    ("scenario", "validate_scenario"),
    ("scenario", "build_population"),
    ("scenario", "build_ris_inventory"),
    ("scenario", "scenario_from_dict"),
    ("channel", "draw_channels"),
    ("channel", "aligned_rate_matrix"),
    ("dcf", "solve_tau"),
    ("dcf", "contention_cascade"),
    ("optimizer", "joint_optimize"),
    ("optimizer", "centralized_ris_config"),
    ("optimizer", "assign_ris_static"),
    ("optimizer", "allocate_power"),
    ("optimizer", "distributed_ris_select"),
    ("simulator", "plan_scheme1"),
    ("simulator", "plan_scheme2"),
    ("simulator", "run_frame"),
    # private, but it is the contended half of run_frame and the only place
    # rounds can be timed without touching the package
    ("simulator", "_run_contention"),
    ("simulator", "measure_fairness"),
    ("experiments", "run_experiment"),
    ("experiments", "scenario_for_value"),
    ("experiments", "run_cell"),
    ("io", "write_table"),
)

MODES = ("proposed", "scheme1", "scheme2")


def replace_everywhere(original, replacement) -> None:
    """Point every name in a ris_mac module bound to ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _scenario_key(scenario) -> str:
    return json.dumps(scenario.to_dict(), sort_keys=True, default=repr)


class CellTimer:
    """Untraced runs: only the per-cell wall times, nothing else."""

    def __init__(self):
        self.cell_s: list = []

    def install(self) -> None:
        original = importlib.import_module(PACKAGE + ".experiments").run_cell

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.cell_s.append(time.perf_counter() - start)

        replace_everywhere(original, timed)

    def cell_seconds(self) -> list:
        return self.cell_s


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.cell = -1
        self._cells = 0
        self.calls: dict = defaultdict(int)
        self.inputs: dict = defaultdict(set)
        self.counts: dict = defaultdict(float)
        self._channel_key: dict = {}

    # -- wrapping -------------------------------------------------------
    def _span(self, name: str, fn, label=None, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if label is None else "%s.%s" % (name, label(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (full, start, end, parent, self.cell)
            self.calls[full] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _cell_scope(self, fn):
        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            self.cell = self._cells
            self._cells += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.cell = -1

        return scoped

    def install(self) -> None:
        hooks = {
            "channel.draw_channels": (None, self._on_draw),
            "dcf.solve_tau": (None, self._on_solve_tau),
            "dcf.contention_cascade": (None, self._on_cascade),
            "optimizer.joint_optimize": (None, self._on_joint_optimize),
            "simulator.run_frame": (_mode_label, self._on_run_frame),
            "simulator._run_contention": (None, self._on_contention),
            "io.write_table": (None, self._on_write_table),
        }
        for modname, fname in TRACED:
            mod = importlib.import_module("%s.%s" % (PACKAGE, modname))
            original = getattr(mod, fname)
            name = "%s.%s" % (modname, fname)
            label, observe = hooks.get(name, (None, None))
            wrapped = self._span(name, original, label, observe)
            if name == "experiments.run_cell":
                wrapped = self._cell_scope(wrapped)
            replace_everywhere(original, wrapped)

    # -- observers: exact counters and distinct inputs ------------------
    def _on_draw(self, args, kwargs, result):
        scenario = args[0] if args else kwargs["scenario"]
        seed = args[1] if len(args) > 1 else kwargs["rng_seed"]
        key = (_scenario_key(scenario), int(seed))
        self.inputs["channel.draw_channels"].add(key)
        self._channel_key[id(result)] = key
        self.counts["channel.draw_channels.bytes"] += result.r.nbytes + result.g.nbytes + result.h.nbytes

    def _on_solve_tau(self, args, kwargs, result):
        self.inputs["dcf.solve_tau"].add(args + tuple(sorted(kwargs.items())))

    def _on_cascade(self, args, kwargs, result):
        self.inputs["dcf.contention_cascade"].add(repr(args) + repr(sorted(kwargs.items())))

    def _on_joint_optimize(self, args, kwargs, result):
        scenario = args[0] if args else kwargs["scenario"]
        channels = args[1] if len(args) > 1 else kwargs["channels"]
        rest = repr(args[2:]) + repr(sorted(kwargs.items()))
        key = (_scenario_key(scenario), self._channel_key.get(id(channels), id(channels)), rest)
        self.inputs["optimizer.joint_optimize"].add(key)
        self.counts["optimizer.joint_optimize.sweeps"] += result.sweeps

    def _on_run_frame(self, args, kwargs, result):
        self.counts["simulator.events"] += len(result.events)
        self.counts["simulator.collisions"] += result.collisions

    def _on_contention(self, args, kwargs, result):
        scenario, contenders, served = args[0], args[3], args[8]
        rounds = result[0]
        self.counts["simulator.contention.rounds"] += rounds
        self.counts["simulator.contention.round_slots"] += rounds * scenario.radio.num_subchannels
        self.counts["simulator.contention.served"] += int(served[list(contenders)].sum())

    def _on_write_table(self, args, kwargs, result):
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.counts["io.write_table.bytes"] += os.path.getsize(path)

    # -- summaries ------------------------------------------------------
    def cell_seconds(self) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == "experiments.run_cell"]

    def self_times(self) -> dict:
        """Self time per span name: duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def busy_times(self) -> dict:
        out: dict = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric the benchmark knows, by name."""
        busy, own = self.busy_times(), self.self_times()
        calls = self.calls
        m = {}
        for name in (
            "channel.draw_channels", "dcf.solve_tau", "dcf.contention_cascade",
            "optimizer.joint_optimize", "optimizer.assign_ris_static",
            "optimizer.allocate_power", "optimizer.distributed_ris_select",
            "simulator.plan_scheme1", "experiments.run_cell",
            "scenario.validate_scenario", "io.write_table",
        ):
            m[name + ".calls"] = calls[name]
            m[name + ".busy_s"] = busy[name]
        for name in ("channel.draw_channels", "dcf.solve_tau", "dcf.contention_cascade",
                     "optimizer.joint_optimize"):
            m[name + ".unique_ratio"] = len(self.inputs[name]) / calls[name] if calls[name] else 0.0
        m["channel.draw_channels.bytes"] = self.counts["channel.draw_channels.bytes"]
        m["optimizer.joint_optimize.sweeps"] = self.counts["optimizer.joint_optimize.sweeps"]
        m["io.write_table.bytes"] = self.counts["io.write_table.bytes"]
        for mode in MODES:
            name = "simulator.run_frame." + mode
            m[name + ".calls"] = calls[name]
            m[name + ".busy_s"] = busy[name]
        m["simulator.run_frame.calls"] = sum(calls["simulator.run_frame." + x] for x in MODES)
        m["simulator.run_frame.busy_s"] = sum(busy["simulator.run_frame." + x] for x in MODES)
        rounds = self.counts["simulator.contention.rounds"]
        cont_busy = busy["simulator._run_contention"]
        slots = self.counts["simulator.contention.round_slots"]
        m["simulator.contention.busy_s"] = cont_busy
        m["simulator.contention.rounds"] = rounds
        m["simulator.contention.rounds_per_s"] = rounds / cont_busy if cont_busy > 0 else 0.0
        m["simulator.contention.grant_ratio"] = (
            self.counts["simulator.contention.served"] / slots if slots else 0.0
        )
        m["simulator.events"] = self.counts["simulator.events"]
        m["simulator.collisions"] = self.counts["simulator.collisions"]
        m["experiments.run_experiment.self_s"] = own["experiments.run_experiment"]
        for layer in LAYERS:
            m[layer + ".self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, cell in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "cell": cell}))
                f.write("\n")


def _mode_label(args, kwargs) -> str:
    return args[4] if len(args) > 4 else kwargs["mode"]
