"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name and reads some of their arguments by position, and its worker
(perfbench/worker.py) calls package functions by keyword.  These checks
parse both with ast, without importing them, so a rename or a moved
parameter fails here rather than in the benchmark's own runs."""

import ast
import importlib
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")
WORKER = os.path.join(PERFBENCH, "worker.py")


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def tracer_module() -> ast.Module:
    return parse(TRACER)


def test_every_traced_function_exists():
    traced = next(
        node.value for node in tracer_module().body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    pairs = ast.literal_eval(traced)
    assert pairs
    for module, name in pairs:
        assert callable(getattr(importlib.import_module("ris_mac." + module), name, None)), (
            module, name,
        )


# each hook that reads arguments by position: the function it wraps, and
# the position of every parameter it reads
HOOKS = {
    "_on_contention": ("simulator", "_run_contention", {"scenario": 0, "contenders": 3, "served": 8}),
    "_mode_label": ("simulator", "run_frame", {"mode": 4}),
    "_on_draw": ("channel", "draw_channels", {"scenario": 0, "rng_seed": 1}),
    "_on_joint_optimize": ("optimizer", "joint_optimize", {"scenario": 0, "channels": 1}),
    "_on_write_table": ("io", "write_table", {"path": 2}),
}


def is_args_index(node) -> bool:
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.slice, ast.Constant))


def positional_reads(hook_name: str) -> dict:
    """{parameter: position} of every argument the tracer's ``hook_name``
    reads by position: ``name = args[i]`` (also inside a tuple assignment)
    names it by its target, and ``args[i] if ... else kwargs["name"]`` by
    the keyword it falls back to."""
    hook = next(
        node for node in ast.walk(tracer_module())
        if isinstance(node, ast.FunctionDef) and node.name == hook_name
    )
    read = {}
    for node in ast.walk(hook):
        if isinstance(node, ast.IfExp) and is_args_index(node.body):
            fallback = node.orelse
            assert isinstance(fallback, ast.Subscript) and fallback.value.id == "kwargs"
            read[ast.literal_eval(fallback.slice)] = ast.literal_eval(node.body.slice)
        elif isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = (
                zip(target.elts, value.elts)
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                else [(target, value)]
            )
            for name, item in pairs:
                if is_args_index(item):
                    read[name.id] = ast.literal_eval(item.slice)
    return read


def assert_reads_match_signature(hook_name: str) -> None:
    module, function, expected = HOOKS[hook_name]
    read = positional_reads(hook_name)
    assert read == expected
    wrapped = getattr(importlib.import_module("ris_mac." + module), function)
    params = list(inspect.signature(wrapped).parameters)
    assert {name: params[i] for name, i in read.items()} == {name: name for name in read}


def test_contention_hook_reads_the_parameters_it_names():
    assert_reads_match_signature("_on_contention")


@pytest.mark.parametrize("hook_name", ["_mode_label", "_on_draw", "_on_joint_optimize",
                                       "_on_write_table"])
def test_hook_reads_the_parameters_it_names(hook_name):
    assert_reads_match_signature(hook_name)


# the package modules the worker imports by these names
WORKER_MODULES = ("scenario", "experiments", "io")


def worker_calls() -> list:
    """(module, function, positional count, keyword names) of every call the
    worker makes through one of WORKER_MODULES."""
    calls = []
    for node in ast.walk(parse(WORKER)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in WORKER_MODULES):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)  # no **kwargs
            calls.append((node.func.value.id, node.func.attr, len(node.args),
                          [k.arg for k in node.keywords]))
    return calls


def test_worker_calls_bind_to_the_current_signatures():
    calls = worker_calls()
    assert {(module, name) for module, name, _, _ in calls} >= {
        ("scenario", "default_scenario"), ("scenario", "validate_scenario"),
        ("experiments", "parse_sweep"), ("experiments", "run_experiment"),
        ("io", "write_table"),
    }
    for module, name, positional, keywords in calls:
        function = getattr(importlib.import_module("ris_mac." + module), name)
        signature = inspect.signature(function)
        # raises TypeError on a positional count or keyword the function no longer takes
        signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        # a keyword must name a parameter, not fall into a **overrides
        named = {p.name for p in signature.parameters.values()
                 if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
        assert set(keywords) <= named, (module, name, keywords)


def test_worker_reads_the_names_the_cell_timer_needs():
    from ris_mac import experiments

    assert isinstance(experiments.RESULT_COLUMNS, tuple) and experiments.RESULT_COLUMNS
    assert callable(experiments.run_cell)
    # the cell timer swaps the module's run_cell, which a job finds by that name
    job = next(
        node for node in parse(inspect.getsourcefile(experiments)).body
        if isinstance(node, ast.FunctionDef) and node.name == "_seed_job"
    )
    assert any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "run_cell"
        for node in ast.walk(job)
    )
