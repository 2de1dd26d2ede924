"""Seeded inputs for the two seeded workloads.

The module and trigraded-data distributions are those of the test suite
(``random_presentation`` and acceptance criterion 8), copied here so that the
benchmark does not import ``tests/``.  The draws consume a ``random.Random``
in the same order as the suite, so a population drawn from the suite's seed
is the suite's population.

The workload seed does not draw a new population.  It draws a symmetry of a
fixed population that leaves both the answers and the amount of work
unchanged (see README.md, "Why the seed draws a symmetry"), because fresh
draws of a size that fits one run vary by a factor of two in total cost from
seed to seed.
"""

from __future__ import annotations

import random

from cmreg.fields import GF32003
from cmreg.freemod import (
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    free_presentation,
)
from cmreg.rings import PolyRing

#: the test suite's base seed; both populations are its first draws
POPULATION_SEED = 20260825


def _random_poly(rng, ring, degree):
    if degree < 0:
        return ring.zero
    terms = {}
    for exps in ring.monomials_of_degree(degree):
        c = rng.randrange(-2, 3)
        if c:
            terms[exps] = ring.field(c)
    return ring.from_terms(terms)


def random_presentation(rng, ring, max_gens=2, max_rels=3, max_deg=3):
    """Graded module over a polynomial ring: a cover with at most max_gens
    generators in degrees 0..2 and at most max_rels homogeneous relation
    columns with entry degrees at most max_deg."""
    ngens = rng.randint(1, max_gens)
    twists = tuple(sorted(rng.randint(0, 2) for _ in range(ngens)))
    nrels = rng.randint(0, max_rels)
    cols, src = [], []
    for _ in range(nrels):
        s = min(twists) + rng.randint(1, max_deg)
        col = tuple(_random_poly(rng, ring, s - t) for t in twists)
        if all(p.is_zero() for p in col):
            continue
        cols.append(col)
        src.append(s)
    if not cols:
        return free_presentation(ring, twists)
    matrix = [[col[k] for col in cols] for k in range(ngens)]
    return ModulePresentation(
        GradedMap(
            GradedFreeModule(ring, tuple(src)),
            GradedFreeModule(ring, twists),
            matrix,
        )
    )


def rescale(M, rng):
    """M under a random diagonal automorphism: x_k -> lam_k x_k on the ring,
    and nonzero scalars on each generator and each relation.

    Every monomial keeps its place in the term order and every coefficient is
    multiplied by a nonzero constant, so each Groebner and echelon step of the
    original maps to the same step here: the Betti table and the operation
    counts are those of M."""
    ring = M.ring
    field = ring.field
    phi = M.relations
    if phi.source.rank == 0:
        return M

    def unit():
        return field(rng.randrange(1, GF32003.p))

    lam = [unit() for _ in range(ring.nvars)]
    mu = [unit() for _ in range(phi.target.rank)]
    nu = [unit() for _ in range(phi.source.rank)]

    def scaled(p, c):
        out = {}
        for exps, coeff in p.terms.items():
            w = c
            for lk, e in zip(lam, exps):
                w = field.mul(w, pow(lk, e, GF32003.p))
            out[exps] = field.mul(coeff, w)
        return ring.from_terms(out)

    matrix = [
        [scaled(p, field.mul(mu[k], nu[m])) for m, p in enumerate(row)]
        for k, row in enumerate(phi.matrix)
    ]
    return ModulePresentation(GradedMap(phi.source, phi.target, matrix))


def betti_population(seed, size):
    """The first size modules over K[x1,x2,x3] from the suite's seed, each
    under its own seeded diagonal automorphism."""
    ring = PolyRing(3, GF32003)
    draws = random.Random(POPULATION_SEED)
    sym = random.Random(seed)
    return [rescale(random_presentation(draws, ring), sym) for _ in range(size)]


def _random_spec_data(rng):
    d = rng.randint(1, 3)
    b = rng.randint(1, 3)
    c = rng.randint(1, 3)
    h = [rng.randint(1, 4) for _ in range(b)]
    g = [rng.randint(1, 4) for _ in range(c)]
    g1, h1 = max(g), max(h)
    levels = {0: [(0, 0, rng.randint(-3, 3))]}
    for l in range(1, min(d + b + c, 4) + 1):
        gens = []
        for _ in range(rng.randint(0, 2)):
            b1, b2 = rng.randint(0, 2), rng.randint(0, 2)
            gens.append((b1, b2, g1 * b1 + h1 * b2 + rng.randint(-3, 3) + l))
        if gens:
            levels[l] = gens
    return {"d": d, "b": b, "c": c, "h": h, "g": g}, levels


def trigraded_population(seed, size):
    """The first size trigraded data sets of acceptance criterion 8's
    generator, as `cmreg trigraded-bound` input blobs.  The seed shifts every
    internal degree a by one common integer and shuffles the generators of
    each level, which moves the bound line but not the work."""
    draws = random.Random(POPULATION_SEED)
    sym = random.Random(seed)
    blobs = []
    for _ in range(size):
        spec, levels = _random_spec_data(draws)
        shift = sym.randint(-9, 9)
        data = {}
        for l, gens in levels.items():
            gens = [[b1, b2, a + shift] for b1, b2, a in gens]
            sym.shuffle(gens)
            data[str(l)] = gens
        blobs.append({"spec": spec, "data": data})
    return blobs
