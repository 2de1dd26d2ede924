"""Every cmreg name the benchmark reaches for still exists.

The benchmark's own tests are not part of this suite, so a function that
the tracer wraps or a workload imports could be deleted without a failure
here.  This reads perfbench's sources as text (nothing under perfbench is
imported) and resolves each name against the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module, name):
    """module.name as an attribute, or as a submodule (from cmreg import cli)."""
    home = importlib.import_module(module)
    if hasattr(home, name):
        return getattr(home, name)
    return importlib.import_module(f"{module}.{name}")


def _tracer_layers():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _cmreg_imports(path):
    """(module, name) for each `from cmreg... import name` in path."""
    tree = ast.parse(path.read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "cmreg"
        for alias in node.names
    ]


def test_tracer_layers_resolve():
    layers = _tracer_layers()
    assert layers
    for layer, fns in layers.items():
        home = importlib.import_module(f"cmreg.{layer}")
        for fn in fns:
            assert callable(getattr(home, fn, None)), f"cmreg.{layer}.{fn}"


@pytest.mark.parametrize("source", ["workloads.py", "generators.py"])
def test_perfbench_imports_resolve(source):
    imports = _cmreg_imports(PERFBENCH / source)
    assert imports
    for module, name in imports:
        _resolve(module, name)
