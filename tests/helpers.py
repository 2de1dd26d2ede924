"""Shared builders for the test suite: standard setups and seeded random
modules."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from reference_pieces import piece_basis
from cmreg import groebner
from cmreg.fields import GF32003
from cmreg.freemod import (
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    free_presentation,
    vec_reduce_entries,
)
from cmreg.problemfile import parse_problem
from cmreg.rees import IdealData, unit_ideal
from cmreg.rings import PolyRing


def cyclic_quotient(ring, polys, twist=0):
    """coker of the row [p1 .. pk] : the module (A/(p1..pk))(-twist)."""
    F = GradedFreeModule(ring, (twist,))
    ps = [ring.poly(t) if isinstance(t, str) else t for t in polys]
    ps = [p for p in ps if not p.is_zero()]
    if not ps:
        return free_presentation(ring, (twist,))
    src = tuple(twist + p.degree for p in ps)
    return ModulePresentation(
        GradedMap(GradedFreeModule(ring, src), F, [list(ps)])
    )


def hypersurface_setup(field=GF32003):
    """A = K[X]/(X^2), M = N = A/(x), I = A."""
    Q = PolyRing(1, field)
    A = Q.quotient([Q.poly("x1^2")])
    M = cyclic_quotient(A, ["x1"])
    return A, M, M, unit_ideal(A)


def two_relation_setup(field=GF32003):
    """A = K[X,Y]/(X^2, Y^3), M = N = A/(y), I = A."""
    Q = PolyRing(2, field)
    A = Q.quotient([Q.poly("x1^2"), Q.poly("x2^3")])
    M = cyclic_quotient(A, ["x2"])
    return A, M, M, unit_ideal(A)


def reduced_hypersurface_setup(field=GF32003):
    """A = K[X,Y]/(XY), M = A/(x), N = (x) = (A/(y))(-1), I = (x)."""
    Q = PolyRing(2, field)
    A = Q.quotient([Q.poly("x1*x2")])
    M = cyclic_quotient(A, ["x1"])
    N = ModulePresentation(
        GradedMap(
            GradedFreeModule(A, (2,)),
            GradedFreeModule(A, (1,)),
            [[A.poly("x2")]],
        )
    )
    I = IdealData(A, [A.poly("x1")])
    return A, M, N, I


PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"

#: the variants the benchmark's `verify` sweeps on each shipped problem file
PROBLEM_VARIANTS = {
    "hypersurface": ("power",),
    "two_relation": ("power",),
    "reduced_hypersurface": ("power", "quotient"),
    "ci3": ("power",),
}


def problem_file(name):
    """perfbench/problems/<name>.prob, parsed (the file is only read)."""
    return parse_problem((PROBLEMS / f"{name}.prob").read_text())


def ci3_setup():
    """The benchmark's ci3.prob: A = K[x1,x2,x3]/(x1^2, x2^2 - x1*x3),
    M = A/(x1,x3), N = A/(x2), I = (x2,x3)."""
    pf = problem_file("ci3")
    return pf.ring, pf.module("M"), pf.module("N"), pf.ideal("I")


def vec_sub(u, v):
    """u - v entrywise; the package has no vector subtraction of its own."""
    return tuple(a - b for a, b in zip(u, v))


def divisor_table(elements, lts, order):
    """A hand-built GroebnerBasis.table: position -> [(packed leading
    monomial, coefficient, packed element)] for elements with leading terms
    lts, kept in list order."""
    pack = order.packing.pack
    table = {}
    for g, (k, e, c) in zip(elements, lts):
        elem = [(m, t) for m, t in enumerate(groebner._packed(g, pack)) if t]
        table.setdefault(k, []).append((pack(e), c, elem))
    return table


def vector_coords(F: GradedFreeModule, v, s: int, basis=None):
    """Coordinates of a degree-s vector in the piece_basis of F_s (entries
    are taken mod (z) over a quotient ring)."""
    if basis is None:
        basis = piece_basis(F, s)
    index = {be: i for i, be in enumerate(basis)}
    coords = [F.base.field.zero] * len(basis)
    for k, p in enumerate(vec_reduce_entries(F, v)):
        for e, c in p.terms.items():
            coords[index[(k, e)]] = c
    return coords


def random_poly(rng: random.Random, ring, degree):
    """Random homogeneous polynomial of the given degree (may be zero).

    Over a quotient ring only standard monomials are used, so the result is
    already in normal form."""
    base = ring.base
    if degree < 0:
        return base.zero
    terms = {}
    for exps in ring.std_monomials_of_degree(degree):
        c = rng.randrange(-2, 3)
        if c:
            terms[exps] = base.field(c)
    return base.from_terms(terms)


def random_signed_poly(rng: random.Random, R: PolyRing, degree):
    """Random homogeneous polynomial over a polynomial ring whose
    coefficients reach every sign: all of GF(p), or fractions of either
    sign over QQ.  Degree 0 gives constants; the result may be zero."""
    terms = {}
    for e in R.monomials_of_degree(degree):
        if rng.random() < 0.6:
            if R.field.characteristic:
                terms[e] = rng.randrange(R.field.characteristic)
            else:
                terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return R.from_terms(terms)


def random_presentation(
    rng: random.Random, ring, max_gens=2, max_rels=2, max_deg=3
):
    """Seeded random graded module: small cover, homogeneous relation
    columns with entry degrees <= max_deg."""
    ngens = rng.randint(1, max_gens)
    twists = tuple(sorted(rng.randint(0, 2) for _ in range(ngens)))
    F = GradedFreeModule(ring, twists)
    nrels = rng.randint(0, max_rels)
    cols = []
    src = []
    for _ in range(nrels):
        s = min(twists) + rng.randint(1, max_deg)
        col = tuple(random_poly(rng, ring, s - t) for t in twists)
        if all(p.is_zero() for p in col):
            continue
        cols.append(col)
        src.append(s)
    if not cols:
        return free_presentation(ring, twists)
    matrix = [[cols[m][k] for m in range(len(cols))] for k in range(ngens)]
    return ModulePresentation(
        GradedMap(GradedFreeModule(ring, tuple(src)), F, matrix)
    )


def random_ses(rng: random.Random, ring):
    """0 -> U -> M -> M'' -> 0 with U the image of random cover vectors;
    None when no nonzero vector came up."""
    from cmreg.ext_tor import to_presentation
    from cmreg.freemod import map_from_columns, vec_degree, vec_is_zero

    M = random_presentation(rng, ring)
    F = M.cover
    psi_cols = [tuple(c) for c in M.relations.columns()]
    gvecs = []
    for _ in range(rng.randint(1, 2)):
        s = min(F.twists) + rng.randint(0, 2)
        col = tuple(random_poly(rng, ring, s - t) for t in F.twists)
        if not vec_is_zero(col):
            gvecs.append(col)
    if not gvecs:
        return None
    sub = to_presentation(F, gvecs + psi_cols, psi_cols)
    quot_cols = psi_cols + gvecs
    twists = tuple(vec_degree(F, c) for c in quot_cols)
    quot = ModulePresentation(map_from_columns(twists, F, quot_cols))
    return sub.presentation, M, quot
