"""Only rings.py decides whether a ring is Q or a quotient A = Q/(z).

Q and A are one type, PolyRing, and a ring says which it is by its
relations (empty for Q).  So no module outside rings.py, demo or test
makes an isinstance test against a class of cmreg.rings: a precondition
on the kind of ring reads ring.relations.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cmreg
from cmreg import rings

PACKAGE = Path(cmreg.__file__).parent
REPO = Path(__file__).resolve().parent.parent

#: the classes rings.py defines: PolyRing, GradedPoly, TokenStream
RING_CLASSES = {
    name
    for name, obj in vars(rings).items()
    if isinstance(obj, type) and obj.__module__ == rings.__name__
}


def _ring_decisions(tree):
    """(line, what) for each isinstance test against a class of cmreg.rings
    and each mention of base_poly_ring."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = {
                getattr(n, "id", None) or getattr(n, "attr", None)
                for a in node.args[1:]
                for n in ast.walk(a)
            }
            for name in sorted(names & RING_CLASSES):
                yield node.lineno, f"isinstance(..., {name})"
        elif "base_poly_ring" in {
            getattr(node, field, None) for field in ("id", "attr", "name")
        }:
            yield getattr(node, "lineno", 0), "base_poly_ring"


def test_ring_classes_are_the_ones_rings_defines():
    # one ring type: PolyRing is Q and every quotient A = Q/(z)
    assert RING_CLASSES == {"PolyRing", "GradedPoly", "TokenStream"}


def test_ring_kind_is_decided_only_in_rings():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "rings.py")
    sources += sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "tests").glob("*.py"))
    assert len(sources) > 30
    found = [
        f"{path.name}:{line}: {what}"
        for path in sources
        for line, what in _ring_decisions(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_the_guard_sees_an_isinstance_test():
    # the scan is not vacuous: each kind of ring decision it looks for is found
    tree = ast.parse(
        "def f(ring, p):\n"
        "    if isinstance(ring, rings.PolyRing) or isinstance(p, (int, GradedPoly)):\n"
        "        return base_poly_ring(ring)\n"
    )
    assert [what for _, what in _ring_decisions(tree)] == [
        "isinstance(..., PolyRing)", "isinstance(..., GradedPoly)", "base_poly_ring"
    ]
