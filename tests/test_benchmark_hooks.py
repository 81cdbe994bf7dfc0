"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name and reads some of their arguments by position.  These checks parse it
with ast, without importing it, so a rename or a moved parameter fails here
rather than in the benchmark's own runs."""

import ast
import importlib
import inspect
import os

from ris_mac import simulator as sim

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def tracer_module() -> ast.Module:
    with open(TRACER, encoding="utf-8") as f:
        return ast.parse(f.read(), TRACER)


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


def test_contention_hook_reads_the_parameters_it_names():
    hook = next(
        node for node in ast.walk(tracer_module())
        if isinstance(node, ast.FunctionDef) and node.name == "_on_contention"
    )
    # positions read as ``name = args[i]``, also inside a tuple assignment
    read = {}
    for node in ast.walk(hook):
        if not isinstance(node, ast.Assign):
            continue
        target, value = node.targets[0], node.value
        pairs = (
            zip(target.elts, value.elts)
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            else [(target, value)]
        )
        for name, item in pairs:
            if (isinstance(item, ast.Subscript) and isinstance(item.value, ast.Name)
                    and item.value.id == "args"):
                read[name.id] = ast.literal_eval(item.slice)
    assert read == {"scenario": 0, "contenders": 3, "served": 8}
    params = list(inspect.signature(sim._run_contention).parameters)
    assert {name: params[i] for name, i in read.items()} == {name: name for name in read}
