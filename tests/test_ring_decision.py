"""Only rings.py decides whether a ring is Q or a quotient A = Q/(z).

Q answers the QuotientRing interface as the quotient by the empty
sequence, so elsewhere an isinstance test against QuotientRing may only
reject a ring of the wrong kind, in the named preconditions below.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cmreg

PACKAGE = Path(cmreg.__file__).parent

#: (module, top-level function or class) allowed to reject the wrong ring
PRECONDITIONS = {
    ("resolution.py", "resolve_over_Q"),
    ("regularity.py", "GradedPieces"),
    ("regularity.py", "present_over_Q"),
    ("ci_ops.py", "lift_resolution"),
}


def _ring_decisions(tree):
    """(line, enclosing top-level name, what) for each isinstance test
    against QuotientRing and each mention of base_poly_ring."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                names = {n.id for a in node.args[1:] for n in ast.walk(a) if isinstance(n, ast.Name)}
                if "QuotientRing" in names:
                    yield node.lineno, owner, "isinstance(..., QuotientRing)"
            elif "base_poly_ring" in {
                getattr(node, field, None) for field in ("id", "attr", "name")
            }:
                yield getattr(node, "lineno", top.lineno), owner, "base_poly_ring"


def test_ring_kind_is_decided_only_in_rings():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "rings.py")
    assert sources
    found = [
        f"{path.name}:{line}: {what} in {owner}"
        for path in sources
        for line, owner, what in _ring_decisions(ast.parse(path.read_text(), str(path)))
        if what != "isinstance(..., QuotientRing)" or (path.name, owner) not in PRECONDITIONS
    ]
    assert not found, found
