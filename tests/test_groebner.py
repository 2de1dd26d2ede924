from __future__ import annotations

import random

import pytest

from helpers import random_poly, random_presentation, vec_sub
from cmreg.errors import DegreeCapExceeded
from cmreg.fields import GF32003, QQ
from cmreg.freemod import (
    GradedFreeModule,
    GradedMap,
    basis_vector,
    map_from_columns,
    piece_basis,
    span_matrix,
    vec_add,
    vec_degree,
    vec_is_zero,
    vec_mul_poly,
    vec_reduce_entries,
    vec_scale,
    vector_coords,
)
from cmreg.groebner import (
    Elimination,
    buchberger,
    kernel,
    minimal_generators,
    normal_form,
    preimage,
    presentation_is_zero,
    submodule_contains,
    submodule_equal,
    submodule_gb,
)
from cmreg.linalg import in_row_span, rank, row_reduce
from cmreg.rings import PolyRing, QuotientRing

Q2 = PolyRing(2, GF32003)


def _random_gens(rng, F, count, max_deg=3):
    gens = []
    for _ in range(count):
        s = min(F.twists) + rng.randint(1, max_deg)
        col = tuple(random_poly(rng, F.ring, s - t) for t in F.twists)
        if not vec_is_zero(col):
            gens.append(col)
    return gens


def test_buchberger_ideal_example():
    F = GradedFreeModule(Q2, (0,))
    gb = buchberger([(Q2.poly("x1^2"),), (Q2.poly("x1*x2"),)], F)
    # x2 * x1^2 - x1 * x1x2 = 0, so the two gens are already a basis
    assert len(gb) == 2
    assert normal_form((Q2.poly("x1^3"),), gb)[0].is_zero()
    assert not normal_form((Q2.poly("x2^2"),), gb)[0].is_zero()


def test_normal_form_idempotent_and_linear(seed):
    rng = random.Random(seed)
    F = GradedFreeModule(Q2, (0, 1))
    for trial in range(25):
        gens = _random_gens(rng, F, rng.randint(1, 3))
        if not gens:
            continue
        gb = submodule_gb(gens, F)
        v = _random_gens(rng, F, 1)
        if not v:
            continue
        r = normal_form(v[0], gb)
        assert normal_form(r, gb) == r
        # NF kills every generator
        for g in gens:
            assert vec_is_zero(normal_form(g, gb))


def test_spair_normal_forms_vanish(seed):
    # Buchberger criterion: every S-pair of a computed basis reduces to zero
    rng = random.Random(seed)
    from cmreg.rings import monomial_div, monomial_lcm

    F = GradedFreeModule(Q2, (0, 1))
    for trial in range(10):
        gens = _random_gens(rng, F, 3)
        if not gens:
            continue
        gb = buchberger(gens, F)
        for i in range(len(gb.elements)):
            for j in range(i + 1, len(gb.elements)):
                ki, ei, ci = gb.leading_terms[i]
                kj, ej, cj = gb.leading_terms[j]
                if ki != kj:
                    continue
                lcm = monomial_lcm(ei, ej)
                s = vec_sub(
                    vec_mul_poly(
                        gb.elements[i],
                        Q2.monomial(monomial_div(lcm, ei), GF32003.inv(ci)),
                    ),
                    vec_mul_poly(
                        gb.elements[j],
                        Q2.monomial(monomial_div(lcm, ej), GF32003.inv(cj)),
                    ),
                )
                assert vec_is_zero(normal_form(s, gb))


def test_submodule_membership_vs_linear_algebra(seed):
    # agreement with a degreewise rank computation
    rng = random.Random(seed)
    F = GradedFreeModule(Q2, (0,))
    for trial in range(15):
        gens = _random_gens(rng, F, 2, max_deg=2)
        if not gens:
            continue
        gb = submodule_gb(gens, F)
        s = rng.randint(1, 4)
        basis = piece_basis(F, s)
        rows = span_matrix(F, gens, s, basis)
        v = (random_poly(rng, Q2, s),)
        if vec_is_zero(v):
            continue
        from cmreg.freemod import vector_coords
        from cmreg.linalg import in_row_span, row_reduce

        coords = vector_coords(F, v, s, basis)
        rref, pivots = row_reduce(rows, GF32003)
        assert submodule_contains(gb, v) == in_row_span(coords, rref, pivots, GF32003)


def test_submodule_equal_invariance(seed):
    rng = random.Random(seed)
    F = GradedFreeModule(Q2, (0, 1))
    for trial in range(10):
        gens = _random_gens(rng, F, 3)
        if len(gens) < 2:
            continue
        # scaling and adding a redundant multiple preserves the module
        scaled = [vec_mul_poly(g, Q2.constant(3)) for g in gens]
        redundant = scaled + [vec_mul_poly(gens[0], Q2.poly("x1"))]
        assert submodule_equal(gens, redundant, F)
        bigger = gens + _random_gens(rng, F, 1, max_deg=1)
        if len(bigger) > len(gens):
            assert submodule_equal(gens, bigger, F) == submodule_contains(
                submodule_gb(gens, F), bigger[-1]
            )


def test_kernel_soundness_and_completeness(seed):
    rng = random.Random(seed)
    for trial in range(12):
        M = random_presentation(rng, Q2)
        phi = M.relations
        if phi.source.rank == 0:
            continue
        ker = kernel(phi)
        for v in ker:
            assert vec_is_zero(phi.apply(v))
        # completeness on graded pieces: rank(ker piece) = dim source piece
        # minus rank of image piece
        for s in range(min(phi.source.twists), min(phi.source.twists) + 3):
            dim_src = len(piece_basis(phi.source, s))
            img_rows = span_matrix(phi.target, phi.columns(), s)
            ker_rows = span_matrix(phi.source, ker, s) if ker else []
            assert rank(ker_rows, GF32003) == dim_src - rank(img_rows, GF32003)


def test_kernel_over_quotient_ring():
    Q1 = PolyRing(1, GF32003)
    A = QuotientRing(Q1, [Q1.poly("x1^2")])
    F = GradedFreeModule(A, (0,))
    G = GradedFreeModule(A, (0,))
    phi = GradedMap(GradedFreeModule(A, (1,)), G, [[A.poly("x1")]])
    ker = kernel(phi)
    # kernel of x: A(-1) -> A over A = K[x]/(x^2) is generated by x e_1
    assert len(ker) == 1 and ker[0][0] == A.poly("x1")


def test_preimage_solves(seed):
    rng = random.Random(seed)
    F = GradedFreeModule(Q2, (0, 1))
    for trial in range(12):
        gens = _random_gens(rng, F, 2)
        if not gens:
            continue
        from cmreg.freemod import map_from_columns, vec_degree

        gdegs = [vec_degree(F, g) for g in gens]
        phi = map_from_columns(tuple(gdegs), F, gens)
        # build b in the image, with every piece in one common degree
        s = max(gdegs) + 1
        coeffs = [random_poly(rng, Q2, s - d) for d in gdegs]
        b = None
        for g, c in zip(gens, coeffs):
            piece = vec_mul_poly(g, c)
            b = piece if b is None else vec_add(b, piece)
        if b is None or vec_is_zero(b):
            continue
        x = preimage(phi, b)
        assert x is not None
        assert phi.apply(x) == b
        # and something outside the image has no preimage
        outside = basis_vector(F, 0)
        if not submodule_contains(submodule_gb(gens, F), outside):
            assert preimage(phi, outside) is None


def test_minimal_generators_nakayama(seed):
    rng = random.Random(seed)
    F = GradedFreeModule(Q2, (0, 1))
    x1 = Q2.poly("x1")
    for trial in range(12):
        gens = _random_gens(rng, F, 3)
        if not gens:
            continue
        # adding obvious redundancies changes nothing
        padded = gens + [vec_mul_poly(gens[0], x1)]
        a = minimal_generators(gens, F)
        b = minimal_generators(padded, F)
        assert submodule_equal(gens, a, F)
        assert [len(v) for v in a] == [len(v) for v in b]
        from cmreg.freemod import vec_degree

        degs = [vec_degree(F, v) for v in a]
        assert degs == sorted(degs, reverse=True)


def _minimal_generators_full_rref(gens, F):
    """Reference: the same graded Nakayama selection, with a fresh RREF of
    everything kept so far for each candidate."""
    field = F.base.field
    gens = [vec_reduce_entries(F, g) for g in gens]
    gens = [g for g in gens if not vec_is_zero(g)]
    degs = [vec_degree(F, g) for g in gens]
    selected = []
    for t in sorted(set(degs)):
        basis = piece_basis(F, t)
        rows = span_matrix(F, [g for g, d in zip(gens, degs) if d < t], t, basis)
        for g, d in zip(gens, degs):
            if d != t:
                continue
            coords = vector_coords(F, g, t, basis)
            rref, piv = row_reduce(rows, field)
            if not in_row_span(coords, rref, piv, field):
                selected.append((t, g))
                rows.append(coords)
    selected.sort(key=lambda td: -td[0])
    return [g for _, g in selected]


def _redundant_gens(rng, F, count):
    """Random generators plus scalar multiples, multiples by a variable and
    same-degree sums of them, shuffled, so that both keep and drop
    decisions happen in every degree."""
    base = F.base
    gens = _random_gens(rng, F, count)
    extra = []
    for g in gens:
        extra.append(vec_scale(g, base.field(rng.randint(2, 5))))
        extra.append(vec_mul_poly(g, base.variable(rng.randrange(base.nvars))))
    for a in gens:
        for b in gens:
            if a is not b and vec_degree(F, a) == vec_degree(F, b):
                extra.append(vec_add(a, vec_scale(b, base.field(rng.randint(1, 3)))))
    out = gens + rng.sample(extra, min(len(extra), count))
    rng.shuffle(out)
    return out


def _quotient_ring(field):
    Q = PolyRing(3, field)
    return QuotientRing(Q, [Q.poly("x1^2"), Q.poly("x2*x3")])


@pytest.mark.parametrize("field", [GF32003, QQ], ids=["gf32003", "qq"])
@pytest.mark.parametrize("quotient", [False, True], ids=["poly", "quotient"])
def test_minimal_generators_matches_full_rref_reference(seed, field, quotient):
    rng = random.Random(seed)
    ring = _quotient_ring(field) if quotient else PolyRing(2, field)
    F = GradedFreeModule(ring, (0, 1))
    dropped = 0
    for trial in range(10):
        gens = _redundant_gens(rng, F, 4)
        if not gens:
            continue
        expected = _minimal_generators_full_rref(gens, F)
        assert minimal_generators(gens, F) == expected
        dropped += len(gens) - len(expected)
    assert dropped > 0


@pytest.mark.parametrize("quotient", [False, True], ids=["poly", "quotient"])
def test_elimination_shared_across_right_hand_sides(seed, quotient):
    rng = random.Random(seed)
    ring = _quotient_ring(GF32003) if quotient else Q2
    F = GradedFreeModule(ring, (0, 1))
    for trial in range(6):
        gens = _random_gens(rng, F, 3)
        if not gens:
            continue
        gdegs = [vec_degree(F, g) for g in gens]
        phi = map_from_columns(tuple(gdegs), F, gens)
        s = max(gdegs) + 1
        rhs = [basis_vector(F, 0)]  # degree 0, below every generator
        for _ in range(3):
            b = None
            for g, d in zip(gens, gdegs):
                piece = vec_mul_poly(g, random_poly(rng, ring, s - d))
                b = piece if b is None else vec_add(b, piece)
            rhs.append(vec_reduce_entries(F, b))
            rhs.append(tuple(random_poly(rng, ring, s - t) for t in F.twists))
        elim = Elimination(phi)
        assert elim.kernel() == kernel(phi)
        gb = submodule_gb(gens, F)
        for b in rhs:
            x = elim.preimage(b)
            assert x == preimage(phi, b)
            if submodule_contains(gb, b):
                assert vec_reduce_entries(F, phi.apply(x)) == vec_reduce_entries(F, b)
            else:
                assert x is None
        assert elim.preimage(rhs[0]) is None


def test_degree_cap_exempts_input_reduction():
    # the kernel generator x*e_1 appears while the inputs of the elimination
    # basis reduce against each other, so even cap=0 lets it through
    Q1 = PolyRing(1, GF32003)
    A = QuotientRing(Q1, [Q1.poly("x1^2")])
    F = GradedFreeModule(A, (0,))
    phi = GradedMap(GradedFreeModule(A, (1,)), F, [[A.poly("x1")]])
    ker = kernel(phi, cap=0)
    assert len(ker) == 1 and ker[0][0] == A.poly("x1")


def test_degree_cap_raises_on_spair():
    # lcm(x1*x2, x1^2) = x1^2*x2 leaves the S-element x2^3 of degree 3
    F = GradedFreeModule(Q2, (0,))
    gens = [(Q2.poly("x1*x2"),), (Q2.poly("x1^2+x2^2"),)]
    with pytest.raises(DegreeCapExceeded):
        buchberger(gens, F, cap=2)
    gb = buchberger(gens, F, cap=3)
    assert normal_form((Q2.poly("x2^3"),), gb)[0].is_zero()


def test_presentation_is_zero():
    from cmreg.freemod import ModulePresentation, free_presentation

    F = GradedFreeModule(Q2, (0,))
    full = ModulePresentation(
        GradedMap(GradedFreeModule(Q2, (1, 1)), F, [[Q2.poly("x1"), Q2.poly("x2")]])
    )
    assert not presentation_is_zero(full)  # K lives in degree 0
    one = ModulePresentation(
        GradedMap(GradedFreeModule(Q2, (0,)), F, [[Q2.one]])
    )
    assert presentation_is_zero(one)
    assert not presentation_is_zero(free_presentation(Q2, (0,)))


def test_char_zero_groebner():
    R = PolyRing(2, QQ)
    F = GradedFreeModule(R, (0,))
    gb = buchberger([(R.poly("2*x1^2"),), (R.poly("3*x1*x2"),)], F)
    assert normal_form((R.poly("x1^2*x2"),), gb)[0].is_zero()
    # reduced monic basis has leading coefficient 1
    for g, (k, e, c) in zip(gb.elements, gb.leading_terms):
        assert c == QQ(1)
