"""The in-place reduction accumulator of groebner._reduce against the
tuple-based division algorithm it replaced, kept here as the reference.

The element lists below are not Groebner bases, so the remainder depends on
which divisor is chosen; both sides take the earliest dividing element in
list order and must agree term for term.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import (
    hypersurface_setup,
    random_poly,
    reduced_hypersurface_setup,
    two_relation_setup,
    divisor_table,
    vec_sub,
)
from reference_pieces import vec_mul_term
from cmreg import groebner
from cmreg.fields import GF32003, QQ, PrimeField
from cmreg.freemod import GradedFreeModule, vec_is_zero
from cmreg.groebner import (
    Elimination,
    GroebnerBasis,
    ModuleOrder,
    buchberger,
    normal_form,
    submodule_gb,
)
from cmreg.resolution import resolve_over_A
from cmreg.rings import PolyRing, monomial_div, monomial_divides

FIELDS = (GF32003, PrimeField(7), QQ)


def _reference_reduce(vec, elements, lts, order):
    """Textbook division: rescan for the leading term, subtract whole vectors."""
    ring = order.ambient.base
    remainder_terms = [dict() for _ in range(len(vec))]
    cur = vec
    while not vec_is_zero(cur):
        k, e, c = order.leading_term(cur)
        for t, (gk, ge, gc) in enumerate(lts):
            if gk == k and monomial_divides(ge, e):
                q = ring.field.div(c, gc)
                cur = vec_sub(cur, vec_mul_term(elements[t], monomial_div(e, ge), q))
                break
        else:
            remainder_terms[k][e] = c
            term = tuple(
                ring.monomial(e, c) if i == k else ring.zero for i in range(len(cur))
            )
            cur = vec_sub(cur, term)
    return tuple(ring.from_terms(t) if t else ring.zero for t in remainder_terms)


def _reference_on_accumulator(acc, divisors, order):
    """groebner._reduce's packed interface over the tuple reference: the
    accumulator and the divisor table are unpacked, the reference reduces,
    and its remainder and leading term are packed again.  Flattening the
    table position by position keeps each position's list order, which is
    all the divisor choice reads."""
    ambient, packing = order.ambient, order.packing
    ring = ambient.base

    def vector(entries):
        out = [ring.zero] * ambient.rank
        for k, terms in entries:
            out[k] = ring.from_terms({packing.unpack(e): c for e, c in terms.items()})
        return tuple(out)

    vec = vector(enumerate(acc))
    elements, lts = [], []
    for k, divs in divisors.items():
        for ge, gc, g in divs:
            elements.append(vector(g))
            lts.append((k, packing.unpack(ge), gc))
    r = _reference_reduce(vec, elements, lts, order)
    lead = order.leading_term(r)
    if lead is not None:
        lead = (lead[0], packing.pack(lead[1]), lead[2])
    return [{packing.pack(e): c for e, c in p.terms.items()} for p in r], lead


def _random_vector(rng, F, degree):
    ring = F.base
    vec = tuple(random_poly(rng, ring, degree - t) for t in F.twists)
    if ring.field == QQ:
        # non-integral coefficients exercise exact division over QQ
        vec = tuple(p.scale(Fraction(1, rng.randint(1, 4))) for p in vec)
    return vec


def _snapshot(vecs):
    return [[dict(p.terms) for p in v] for v in vecs]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_accumulator_matches_reference_division(seed, field):
    rng = random.Random(seed)
    order_mattered = 0
    for trial in range(36):
        rank = 1 + trial % 3
        ring = PolyRing(rng.choice((2, 3)), field)
        F = GradedFreeModule(ring, tuple(rng.randint(0, 2) for _ in range(rank)))
        priority = None
        if trial % 2:
            priority = list(range(rank))
            rng.shuffle(priority)
        order = ModuleOrder(F, priority)
        base = max(F.twists)
        elements = [
            v
            for v in (
                _random_vector(rng, F, base + rng.randint(0, 2))
                for _ in range(rng.randint(2, 6))
            )
            if not vec_is_zero(v)
        ]
        lts = [order.leading_term(v) for v in elements]
        gb = GroebnerBasis(F, order, divisor_table(elements, lts, order))
        for _ in range(3):
            vec = _random_vector(rng, F, base + rng.randint(1, 3))
            before = _snapshot([vec] + elements)
            r = normal_form(vec, gb)
            assert r == _reference_reduce(vec, elements, lts, order)
            assert _snapshot([vec] + elements) == before
            backwards = _reference_reduce(vec, elements[::-1], lts[::-1], order)
            order_mattered += backwards != r
    # the divisor rule is exercised, not just the arithmetic
    assert order_mattered > 0


def _setup_maps(setup):
    A, M, N, I = setup()
    maps = [M.relations, N.relations]
    for P in (M, N):
        R = resolve_over_A(P, 3)
        maps.extend(R.d(l) for l in range(1, R.length + 1))
    return maps


@pytest.mark.parametrize(
    "setup", [hypersurface_setup, two_relation_setup, reduced_hypersurface_setup]
)
def test_buchberger_elements_match_reference(monkeypatch, setup):
    maps = _setup_maps(setup)

    def bases():
        out = [Elimination(phi).basis.elements for phi in maps]
        out += [submodule_gb(phi.columns(), phi.target).elements for phi in maps]
        return out

    new = bases()
    monkeypatch.setattr(groebner, "_reduce", _reference_on_accumulator)
    assert bases() == new


def test_buchberger_leaves_its_input_alone():
    ring = PolyRing(2, QQ)
    F = GradedFreeModule(ring, (0, 1))
    gens = [
        (ring.poly("x1^2"), ring.poly("x2")),
        (ring.poly("x1*x2"), ring.poly("3*x1")),
        (ring.poly("x2^2"), ring.zero),
    ]
    before = _snapshot(gens)
    gb = buchberger(gens, F)
    assert _snapshot(gens) == before
    for v in gens:
        assert vec_is_zero(normal_form(v, gb))
