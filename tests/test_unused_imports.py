"""Every name the package imports is used in the module that imports it,
and every parameter of a package function is read in its body.

__future__ imports are exempt.  The parameter scan exempts self, cls,
_-prefixed names and dunder methods, whose signatures the data model fixes.
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
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not unused, unused


def _unused_parameters(tree):
    """(line, function, parameter) for each parameter that no Name node in
    the function's body reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for p in params:
            name = p.arg
            if name in ("self", "cls") or name.startswith("_"):
                continue
            if name not in read:
                found.append((node.lineno, node.name, name))
    return found


def test_package_has_no_unused_parameters():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    unused = [
        f"{path.name}:{line}: {fn}({name})"
        for path in sources
        for line, fn, name in _unused_parameters(
            ast.parse(path.read_text(), str(path))
        )
    ]
    assert not unused, unused
