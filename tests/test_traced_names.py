"""Every function that perfbench's tracer wraps resolves in the package.

The tracer replaces each ``(module, attribute)`` of its ``TRACED`` list by
name, so renaming or removing one of them breaks the benchmark's traced run.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED list")


def test_every_traced_function_resolves():
    traced = traced_names()
    assert traced
    missing = [(mod, attr) for mod, attr, _ in traced
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
