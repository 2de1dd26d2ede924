"""The Betti oracle and the Hilbert function share no code path with the
Groebner engine.

GradedPieces, hilbert_function, _koszul_matrix, _certifies (the
certificate that bounds the oracle's window) and betti_oracle, and the
private helpers of regularity.py that they reach, may not reference a name
from cmreg.groebner, nor one from cmreg.resolution other than BettiTable,
the table type the oracle returns.  present_over_Q, which they share with
regularity, only appends the vectors z_j e_k to a presentation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cmreg

SOURCE = Path(cmreg.__file__).parent / "regularity.py"
ORACLE = ("GradedPieces", "hilbert_function", "_koszul_matrix", "_certifies", "betti_oracle")
FORBIDDEN = {"groebner": set(), "resolution": {"BettiTable"}}


def _in_package(dotted):
    """A dotted path relative to the cmreg package ('' for the package)."""
    return dotted.removeprefix("cmreg").removeprefix(".")


def _imports(tree):
    """Each name an import binds, with the dotted path it stands for:
    `from .groebner import kernel` binds kernel to groebner.kernel and
    `import cmreg.resolution as res` binds res to resolution."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = _in_package(node.module or "")
            for alias in node.names:
                bound[alias.asname or alias.name] = ".".join(filter(None, (base, alias.name)))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = _in_package(alias.name if alias.asname else name)
    return bound


def _references(node):
    """(dotted name, line) for each longest chain a.b.c rooted at a name."""
    if isinstance(node, ast.Name):
        yield node.id, node.lineno
        return
    if isinstance(node, ast.Attribute):
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name):
            yield ".".join([base.id] + parts[::-1]), node.lineno
            return
    for child in ast.iter_child_nodes(node):
        yield from _references(child)


def _reach(tree, roots):
    """The top-level definitions named in roots, and the private ones they
    reference, transitively."""
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    todo, seen = list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id.startswith("_") and node.id in defs:
                todo.append(node.id)
    return [defs[name] for name in sorted(seen)]


def _violations(text):
    tree = ast.parse(text)
    bound = _imports(tree)
    out = []
    for top in _reach(tree, ORACLE):
        for name, line in _references(top):
            root, _, rest = name.partition(".")
            if root not in bound:
                continue
            path = ".".join(filter(None, (bound[root], rest)))
            module, _, member = path.partition(".")
            if module in FORBIDDEN and member.split(".")[0] not in FORBIDDEN[module]:
                out.append(f"{top.name}:{line}: {name} ({path})")
    return out


def test_oracle_references_no_groebner_or_resolution_code():
    text = SOURCE.read_text()
    assert not _violations(text), _violations(text)
    # the guard follows the oracle into its private helpers
    assert {
        "GradedPieces", "hilbert_function", "_koszul_matrix", "_certifies", "betti_oracle",
        "_split", "_times", "_forms",
    } <= {top.name for top in _reach(ast.parse(text), ORACLE)}


def test_guard_catches_a_borrowed_name():
    header = (
        "from .groebner import kernel\n"
        "from .resolution import BettiTable, betti_table\n"
        "from . import groebner\n"
        "import cmreg.resolution as res\n"
        "import cmreg.groebner\n"
    )
    clean = (
        "class GradedPieces: pass\ndef hilbert_function(): pass\n"
        "def _koszul_matrix(): pass\ndef _certifies(): pass\n"
    )
    oracle = "def betti_oracle():\n    return BettiTable({}), res.BettiTable({})\n"
    assert _violations(header + clean + oracle) == []
    # the certificate is guarded as a root of its own
    borrowed = clean.replace("def _certifies(): pass", "def _certifies():\n    return kernel(x)")
    assert _violations(header + borrowed + oracle)
    for body in (
        "    return betti_table(x)\n",
        "    return kernel(x)\n",
        "    return groebner.minimal_generators(x)\n",
        "    return res.resolve_over_Q(x)\n",
        "    return cmreg.groebner.kernel(x)\n",
        "    return _helper()\ndef _helper():\n    return kernel(x)\n",
    ):
        assert _violations(header + clean + "def betti_oracle():\n" + body), body
