"""The package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import cmreg

PACKAGE = Path(cmreg.__file__).parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"cmreg"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] not in allowed
    ]
    assert not foreign, foreign
