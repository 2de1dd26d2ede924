"""Every name the package imports is used in the module that imports it.

__init__.py re-exports its imports and is exempt, as are __future__
imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cmreg

PACKAGE = Path(cmreg.__file__).parent


def _unused_imports(tree):
    """(line, name) for each imported binding that no Name node reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_package_has_no_unused_imports():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not unused, unused
