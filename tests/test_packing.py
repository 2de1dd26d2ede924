"""Packed monomials of cmreg.groebner against the exponent-tuple helpers of
cmreg.rings, and the guards that keep packing exact."""

from __future__ import annotations

import random

import pytest

from cmreg.errors import DegreeCapExceeded, HomogeneityError
from cmreg.fields import GF32003
from cmreg.freemod import GradedFreeModule
from cmreg.groebner import PACKED_DEGREE_LIMIT, Packing, buchberger, normal_form
from cmreg.rings import (
    PolyRing,
    _key_degrevlex,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

TOP = PACKED_DEGREE_LIMIT - 1  # the largest exponent a field may hold


def _exponent(rng):
    return rng.choice((0, 1, 2, 3, rng.randint(0, TOP), TOP - 1, TOP))


def _same_degree(rng, a):
    """A random exponent tuple of the same degree as a, every entry <= TOP."""
    b = list(a)
    rng.shuffle(b)
    for _ in range(3):
        i, j = rng.randrange(len(b)), rng.randrange(len(b))
        t = rng.randint(0, min(b[i], TOP - b[j])) if i != j else 0
        b[i] -= t
        b[j] += t
    return tuple(b)


@pytest.mark.parametrize("nvars", range(6))
def test_packing_matches_tuple_monomials(seed, nvars):
    rng = random.Random(seed + nvars)
    packing = Packing(nvars)
    seen = {"product": 0, "divides": 0}
    for _ in range(400):
        a = tuple(_exponent(rng) for _ in range(nvars))
        b = rng.choice(
            (
                tuple(_exponent(rng) for _ in range(nvars)),
                tuple(rng.randint(0, x) for x in a),  # a divisor of a
                _same_degree(rng, a) if nvars else a,
            )
        )
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a
        if sum(a) == sum(b):
            # one degree: the degrevlex-greater term is the smaller int
            assert (pa < pb) == (_key_degrevlex(a) > _key_degrevlex(b))
            assert (pa == pb) == (a == b)
        assert packing.divides(pb, pa) == monomial_divides(b, a)
        if monomial_divides(b, a):
            assert packing.unpack(pa - pb) == monomial_div(a, b)
            seen["divides"] += 1
        if all(x + y <= TOP for x, y in zip(a, b)):
            assert packing.unpack(pa + pb) == monomial_mul(a, b)
            seen["product"] += 1
        assert packing.unpack(packing.lcm(pa, pb)) == monomial_lcm(a, b)
    assert all(seen.values())


def test_entry_degree_at_the_limit_raises():
    ring = PolyRing(2, GF32003)
    F = GradedFreeModule(ring, (0,))
    gb = buchberger([(ring.poly("x1"),)], F)
    below = ring.monomial((0, TOP))
    assert normal_form((below,), gb) == (below,)
    at = ring.monomial((0, PACKED_DEGREE_LIMIT))
    with pytest.raises(DegreeCapExceeded):
        normal_form((at,), gb)
    with pytest.raises(DegreeCapExceeded):
        buchberger([(at,)], F, cap=None)
    # a twist of -1 puts an entry of a degree-TOP vector at degree 2^15
    F2 = GradedFreeModule(ring, (0, -1))
    gb2 = buchberger([(ring.poly("x1"), ring.zero)], F2)
    with pytest.raises(DegreeCapExceeded):
        normal_form((ring.monomial((0, TOP)), ring.zero), gb2)
    # inputs below the limit whose S-pair reaches it
    half = PACKED_DEGREE_LIMIT // 2 + 1
    gens = [(ring.monomial((half, 1)),), (ring.monomial((1, half)),)]
    with pytest.raises(DegreeCapExceeded):
        buchberger(gens, F, cap=None)


def test_mixed_twisted_degree_raises():
    ring = PolyRing(2, GF32003)
    F = GradedFreeModule(ring, (0, 1))
    gb = buchberger([(ring.poly("x1^2"), ring.poly("x2"))], F)
    with pytest.raises(HomogeneityError):
        normal_form((ring.poly("x1"), ring.poly("x2")), gb)
