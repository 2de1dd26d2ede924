"""minimal_presentation: unit entries are cancelled first, then one graded
Nakayama pass keeps minimal relations.

Inputs are seeded random presentations made non-minimal on purpose: a new
generator that a relation with a unit entry ties to the old ones, a scaled
copy of a relation and a combination of two.
"""

from __future__ import annotations

import random

from helpers import random_poly, random_presentation
from cmreg.fields import GF32003
from cmreg.freemod import (
    GradedFreeModule,
    ModulePresentation,
    map_from_columns,
    vec_add,
    vec_degree,
    vec_is_zero,
    vec_mul_poly,
    vec_reduce_entries,
    vec_scale,
)
from cmreg.groebner import minimal_generators
from cmreg.regularity import betti_oracle, hilbert_function
from cmreg.resolution import FreeResolution, minimal_presentation, minimize
from cmreg.rings import PolyRing


def _loop_minimal_presentation(M):
    """The earlier minimal_presentation: Nakayama on all relations, cancel
    unit entries, and repeat while the cover shrinks."""
    ring = M.ring
    F = M.cover
    cols = [vec_reduce_entries(F, c) for c in M.relations.columns()]
    cols = [c for c in cols if not vec_is_zero(c)]
    while True:
        cols = minimal_generators(cols, F).columns()
        d1 = map_from_columns(tuple(vec_degree(F, c) for c in cols), F, cols)
        pruned = minimize(FreeResolution(ring, [F, d1.source], [d1]))
        newF = pruned.modules[0]
        if newF.rank == F.rank:
            return ModulePresentation(pruned.maps[0])
        F = GradedFreeModule(ring, newF.twists)
        cols = [vec_reduce_entries(F, c) for c in pruned.maps[0].columns()]
        cols = [c for c in cols if not vec_is_zero(c)]


def _unit_entries(M):
    """(row, column) of every nonzero constant entry of the relations."""
    rel = M.relations
    return [
        (k, m)
        for k, row in enumerate(rel.matrix)
        for m, p in enumerate(row)
        if not p.is_zero() and rel.source.twists[m] == rel.target.twists[k]
    ]


def _with_redundancy(rng, M, unit=True):
    """M's relations over a cover with one more generator, plus a scaled
    copy of a relation and a combination of two, in shuffled order.  With
    unit set, a relation with a unit entry on the new generator makes it a
    combination of the others; otherwise only the widened relations of M
    touch it."""
    ring = M.ring
    F = M.cover
    t_new = rng.choice(F.twists) + rng.randint(0, 2)
    pos = rng.randint(0, F.rank)
    G = GradedFreeModule(ring, F.twists[:pos] + (t_new,) + F.twists[pos:])
    cols = []
    for c in M.relations.columns():
        s = vec_degree(F, c)
        cols.append(c[:pos] + (random_poly(rng, ring, s - t_new),) + c[pos:])
    if unit:
        c = ring.base.field(rng.choice([1, -1, 2, 5]))
        tie = [random_poly(rng, ring, t_new - t) for t in G.twists]
        tie[pos] = ring.base.from_terms({(0,) * ring.nvars: c})
        cols.append(tuple(tie))
    if cols:
        a = rng.choice(cols)
        cols.append(vec_scale(a, ring.base.field(rng.choice([-1, 3, 7]))))
        b = rng.choice(cols)
        da, db = vec_degree(G, a), vec_degree(G, b)
        s = max(da, db) + rng.randint(0, 1)
        combo = vec_add(
            vec_mul_poly(a, random_poly(rng, ring, s - da)),
            vec_mul_poly(b, random_poly(rng, ring, s - db)),
        )
        if not vec_is_zero(vec_reduce_entries(G, combo)):
            cols.append(combo)
    rng.shuffle(cols)
    return ModulePresentation(
        map_from_columns(tuple(vec_degree(G, c) for c in cols), G, cols)
    )


def _betti_twists(B, i):
    """The twists j of beta_ij, each repeated beta_ij times, ascending."""
    return sorted(
        j for (i2, j), b in B.entries.items() if i2 == i for _ in range(b)
    )


def _rings():
    Q2 = PolyRing(2, GF32003)
    Q3 = PolyRing(3, GF32003)
    return [
        Q2,
        Q3,
        Q2.quotient([Q2.poly("x1^2")]),
        Q2.quotient([Q2.poly("x1*x2")]),
        Q3.quotient([Q3.poly("x1^2"), Q3.poly("x2^2 - x1*x3")]),
    ]


def test_minimal_presentation_over_Q_matches_betti_oracle():
    # beta_0 and beta_1 of the Koszul oracle share no code with the path
    # under test; they are the twists of every minimal presentation
    rng = random.Random(20261018)
    for Q in _rings()[:2]:
        for _ in range(12):
            M = _with_redundancy(rng, random_presentation(rng, Q, max_deg=2))
            assert _unit_entries(M)
            Mmin = minimal_presentation(M)
            B = betti_oracle(M)
            assert not B.partial
            assert sorted(Mmin.cover.twists) == _betti_twists(B, 0)
            assert sorted(Mmin.relations.source.twists) == _betti_twists(B, 1)


def test_minimal_presentation_over_A_is_minimal_and_equivalent():
    rng = random.Random(20261019)
    for A in _rings()[2:]:
        for _ in range(10):
            M = _with_redundancy(rng, random_presentation(rng, A, max_deg=2))
            assert _unit_entries(M)
            Mmin = minimal_presentation(M)
            assert not _unit_entries(Mmin)
            cols = Mmin.relations.columns()
            assert len(minimal_generators(cols, Mmin.cover).columns()) == len(cols)
            lo = min(M.cover.twists)
            assert hilbert_function(Mmin, lo, lo + 5) == hilbert_function(M, lo, lo + 5)


def test_minimal_presentation_without_units_matches_the_loop():
    # with no unit entry to cancel, one Nakayama pass is all the earlier
    # loop did too, so the columns agree one for one
    rng = random.Random(20261020)
    checked = 0
    for ring in _rings():
        for _ in range(12):
            M = _with_redundancy(
                rng, random_presentation(rng, ring, max_deg=2), unit=False
            )
            if _unit_entries(M):
                continue
            checked += 1
            assert minimal_presentation(M) == _loop_minimal_presentation(M)
    assert checked >= 20
