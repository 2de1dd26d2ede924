from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ci3_setup, random_signed_poly
from cmreg.errors import HomogeneityError
from cmreg.fields import GF32003, QQ, PrimeField, _is_prime
from cmreg.rings import (
    PolyRing,
    QuotientRing,
    _monomial_quotient_dimension,
    parse_poly,
)


def test_field_arithmetic():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert QQ.inv(QQ(4)) == QQ(1) / 4
    with pytest.raises(ValueError):
        PrimeField(6)


def test_field_coercion_is_exact():
    F7 = PrimeField(7)
    assert F7(Fraction(1, 2)) == 4
    assert F7(Fraction(-3, 5)) == F7.div(F7(-3), F7(5))
    assert F7(Fraction(14, 4)) == F7.div(7, 2) == 0
    with pytest.raises(ZeroDivisionError):
        F7(Fraction(1, 7))
    for field in (F7, QQ):
        with pytest.raises(TypeError):
            field(2.7)
    with pytest.raises(TypeError):
        QQ(0.1)
    assert QQ("1/10") == Fraction(1, 10)
    R = PolyRing(2, F7)
    assert R.one.scale(Fraction(1, 2)) == R.constant(4)


def _is_prime_by_trial_division(n):
    """The trial division cmreg.fields used before Miller-Rabin: the
    reference for small n."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_prime_fields_take_primes_only():
    for p in (2, 3, 32003, 1000000007, 2**61 - 1):
        assert PrimeField(p).characteristic == p
    # Carmichael numbers fool the Fermat test, and trial division would take
    # minutes on 1000000007 * 1000000009
    for n in (561, 1105, 41041, 1000000007 * 1000000009, 0, 1, -7):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**89 - 1)
    assert [_is_prime(n) for n in range(20000)] == [
        _is_prime_by_trial_division(n) for n in range(20000)
    ]


def test_parse_and_print_terms():
    R = PolyRing(2, GF32003)
    p = R.poly("2*x1^2*x2 - x2^3")
    assert p.degree == 3
    assert p.coeff((2, 1)) == 2
    assert p.coeff((0, 3)) == GF32003(-1)
    q = PolyRing(2, QQ).poly("1/2*x1*x2 + x2^2")
    assert q.coeff((1, 1)) == QQ(1) / 2


def test_parse_rejects_inhomogeneous():
    R = PolyRing(2, GF32003)
    with pytest.raises(HomogeneityError):
        parse_poly(R, "x1^2 + x1")
    with pytest.raises(ValueError):
        parse_poly(R, "x3")
    with pytest.raises(ValueError):
        parse_poly(R, "x1 +")


def test_poly_arithmetic_identity():
    R = PolyRing(2, QQ)
    x, y = R.variable(0), R.variable(1)
    assert ((x + y) * (x - y) - (x * x - y * y)).is_zero()
    assert (x * y).degree == 2


def test_degrevlex_order():
    # x1^2 > x1*x2 > x2^2 and for equal degree the last exponent breaks ties
    R = PolyRing(2, GF32003)
    p = R.poly("x1*x2 + x1^2 + x2^2")
    assert p.lm() == (2, 0)
    q = R.poly("x1*x2 + x2^2")
    assert q.lm() == (1, 1)


@pytest.mark.parametrize("field", [GF32003, PrimeField(7), QQ], ids=str)
def test_repr_parses_back(field, seed):
    rng = random.Random(seed)
    for nvars in (1, 2, 3):
        R = PolyRing(nvars, field)
        polys = [R.constant(-3), R.constant(QQ(-5) / 2), R.poly("x1 - 2*x1")]
        polys += [random_signed_poly(rng, R, d) for d in (0, 0, 1, 2, 3, 3)]
        for p in polys:
            assert parse_poly(R, repr(p)) == p
    R3 = PolyRing(3, field)
    assert repr(R3.poly("x2^2 - x1*x3")) == "x2^2 - x1*x3"
    assert repr(R3.poly("-x1 + 2*x3")) == "-x1 + 2*x3"
    assert repr(R3.zero) == "0"


def test_monomials_of_degree_ordering():
    R = PolyRing(2, GF32003)
    monos = R.monomials_of_degree(2)
    assert monos[0] == (2, 0)
    assert set(monos) == {(2, 0), (1, 1), (0, 2)}


@pytest.mark.parametrize("nvars", [0, 1, 2, 3, 4])
def test_monomials_of_degree_match_a_brute_force_filter(nvars):
    # every exponent tuple in the box [0, s]^nvars of total degree s, sorted
    # descending in degrevlex; none for s < 0
    R = PolyRing(nvars, GF32003)
    for s in range(-2, 7):
        box = product(range(max(s, 0) + 1), repeat=nvars)
        want = sorted((e for e in box if sum(e) == s), key=R.order_key, reverse=True)
        assert R.monomials_of_degree(s) == want


def test_quotient_normal_form():
    Q = PolyRing(1, GF32003)
    A = QuotientRing(Q, [Q.poly("x1^2")])
    assert A.poly("x1^2").is_zero()
    assert not A.poly("x1").is_zero()
    assert A.f_degrees == (2,)
    # NF is idempotent and linear
    p = Q.poly("x1^3")
    assert A.normal_form(A.normal_form(p)) == A.normal_form(p)


def test_quotient_std_monomials():
    Q = PolyRing(2, GF32003)
    A = QuotientRing(Q, [Q.poly("x1^2"), Q.poly("x2^3")])
    assert set(A.std_monomials_of_degree(2)) == {(1, 1), (0, 2)}
    assert A.std_monomials_of_degree(3) == [(1, 2)]
    assert A.std_monomials_of_degree(4) == []


def test_std_monomials_read_the_relation_leads_once(monkeypatch):
    # the filter over one degree equals the per-monomial test, and reads the
    # relations' leading exponents once, not once per monomial
    A = ci3_setup()[0]
    reads = []
    real = A._leading_exponents

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(A, "_leading_exponents", counting)
    for s in range(9):
        reads.clear()
        std = A.std_monomials_of_degree(s)
        assert len(reads) == 1
        assert std == [e for e in A.base.monomials_of_degree(s) if A.is_std_monomial(e)]
    assert std and len(std) < len(A.base.monomials_of_degree(8))


def test_regular_sequence_check():
    Q = PolyRing(2, GF32003)
    QuotientRing(Q, [Q.poly("x1^2"), Q.poly("x2^3")])
    QuotientRing(Q, [Q.poly("x1*x2")])
    with pytest.raises(ValueError):
        QuotientRing(Q, [Q.poly("x1"), Q.poly("x1^2")])
    with pytest.raises(ValueError):
        QuotientRing(Q, [Q.poly("0")])


def _subset_dimension(monomials, nvars):
    """The largest set of variables containing no monomial's support, by
    trying every subset from the largest down."""
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            if not any(
                all(i in subset for i, e in enumerate(m) if e) for m in monomials
            ):
                return size
    return 0


def test_monomial_quotient_dimension_matches_the_subset_search(seed):
    rng = random.Random(seed + 31)
    for _ in range(400):
        d = rng.randint(0, 6)
        monomials = [
            tuple(rng.choice((0, 0, 1, 2)) for _ in range(d))
            for _ in range(rng.randint(0, 6))
        ]
        assert _monomial_quotient_dimension(monomials, d) == _subset_dimension(monomials, d)
    # a unit leaves nothing, in any number of variables
    assert _monomial_quotient_dimension([(0, 0, 0), (1, 0, 0)], 3) == 0
    assert _monomial_quotient_dimension([()], 0) == 0
    assert _monomial_quotient_dimension([], 4) == 4


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_product_degree_property(cs, ds):
    R = PolyRing(2, QQ)
    p = sum(
        (R.monomial(e, c) for e, c in zip([(2, 0), (1, 1), (0, 2)], cs) if c),
        R.zero,
    )
    q = sum(
        (R.monomial(e, c) for e, c in zip([(1, 0), (0, 1)], ds[:2]) if c),
        R.zero,
    )
    prod = p * q
    if not prod.is_zero():
        assert prod.degree == 3
    assert ((p * q) - (q * p)).is_zero()


def test_poly_ring_answers_as_the_empty_quotient(seed):
    import random

    from helpers import random_presentation
    from reference_pieces import piece_basis

    from cmreg.freemod import GradedFreeModule, GradedMap, ModulePresentation
    from cmreg.groebner import relation_vectors
    from cmreg.regularity import hilbert_function, regularity
    from cmreg.resolution import resolve_over_A

    rng = random.Random(seed)
    for Q in (PolyRing(2), PolyRing(3)):
        A0 = QuotientRing(Q, [])
        for _ in range(4):
            M = random_presentation(rng, Q)
            rels = M.relations
            M0 = ModulePresentation(GradedMap(
                GradedFreeModule(A0, rels.source.twists),
                GradedFreeModule(A0, rels.target.twists),
                rels.matrix,
            ))
            assert relation_vectors(M.cover) == relation_vectors(M0.cover) == []
            for s in range(6):
                assert piece_basis(M.cover, s) == piece_basis(M0.cover, s)
            assert hilbert_function(M, 0, 5) == hilbert_function(M0, 0, 5)
            assert regularity(M) == regularity(M0)
            R, R0 = resolve_over_A(M, cap=4), resolve_over_A(M0, cap=4)
            assert R.twist_lists() == R0.twist_lists()
            assert R.complete == R0.complete
