from __future__ import annotations

import random

import pytest

from helpers import divisor_table, random_poly, random_presentation, vec_sub, vector_coords
from reference_pieces import piece_basis, span_matrix
from cmreg.errors import DegreeCapExceeded
from cmreg.fields import GF32003, QQ
from cmreg.freemod import (
    GradedFreeModule,
    GradedMap,
    basis_vector,
    map_from_columns,
    vec_add,
    vec_degree,
    vec_is_zero,
    vec_mul_poly,
    vec_reduce_entries,
    vec_scale,
)
from cmreg.groebner import (
    Elimination,
    GroebnerBasis,
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
from cmreg.rings import PolyRing, QuotientRing, monomial_divides

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
        # both views unpack the basis on each read, so read them once
        elements, lts = gb.elements, gb.leading_terms
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                ki, ei, ci = lts[i]
                kj, ej, cj = lts[j]
                if ki != kj:
                    continue
                lcm = monomial_lcm(ei, ej)
                s = vec_sub(
                    vec_mul_poly(
                        elements[i],
                        Q2.monomial(monomial_div(lcm, ei), GF32003.inv(ci)),
                    ),
                    vec_mul_poly(
                        elements[j],
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
        a = minimal_generators(gens, F).columns()
        b = minimal_generators(padded, F).columns()
        assert submodule_equal(gens, a, F)
        assert [len(v) for v in a] == [len(v) for v in b]
        from cmreg.freemod import vec_degree

        degs = [vec_degree(F, v) for v in a]
        assert degs == sorted(degs, reverse=True)


def _minimal_generators_full_rref(gens, F, modulo=()):
    """Reference: the same graded Nakayama selection modulo the span of
    modulo, with a fresh RREF of everything kept so far for each
    candidate."""
    field = F.base.field
    gens = [vec_reduce_entries(F, g) for g in gens]
    gens = [g for g in gens if not vec_is_zero(g)]
    degs = [vec_degree(F, g) for g in gens]
    selected = []
    for t in sorted(set(degs)):
        basis = piece_basis(F, t)
        lower = [g for g, d in zip(gens, degs) if d < t]
        rows = span_matrix(F, lower + list(modulo), t, basis)
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
    # modulo sets come from their own stream: random vectors and a scalar
    # multiple of one generator, so that generator is never kept
    mod_rng = random.Random(seed + 1)
    dropped = dropped_modulo = 0
    for trial in range(10):
        gens = _redundant_gens(rng, F, 4)
        if not gens:
            continue
        expected = _minimal_generators_full_rref(gens, F)
        assert minimal_generators(gens, F).columns() == expected
        dropped += len(gens) - len(expected)
        one = vec_scale(mod_rng.choice(gens), F.base.field(mod_rng.randint(1, 3)))
        modulo = _random_gens(mod_rng, F, 2) + [one]
        expected_modulo = _minimal_generators_full_rref(gens, F, modulo)
        assert minimal_generators(gens, F, modulo).columns() == expected_modulo
        dropped_modulo += len(expected) - len(expected_modulo)
    assert dropped > 0 and dropped_modulo > 0


@pytest.mark.parametrize("quotient", [False, True], ids=["poly", "quotient"])
def test_minimal_generators_is_a_map_onto_F(seed, quotient):
    # the source twists are the columns' degrees, non-increasing, and no
    # column is left when every input lies in the modulo span
    rng = random.Random(seed)
    ring = _quotient_ring(GF32003) if quotient else PolyRing(2, GF32003)
    F = GradedFreeModule(ring, (0, 1))
    for trial in range(8):
        gens = _redundant_gens(rng, F, 4)
        if not gens:
            continue
        phi = minimal_generators(gens, F)
        assert phi.target == F and phi.source.rank > 0
        cols = phi.columns()
        assert phi.source.twists == tuple(vec_degree(F, c) for c in cols)
        assert list(phi.source.twists) == sorted(phi.source.twists, reverse=True)
        x = F.base.variable(0)
        for modulo in (gens, [vec_mul_poly(g, x) for g in gens] + gens[::-1]):
            empty = minimal_generators(gens, F, modulo)
            assert empty.target == F and empty.source.rank == 0
    assert minimal_generators([], F) == map_from_columns((), F, [])


def test_minimal_generators_and_kernels_unpack_only_what_they_return(seed, monkeypatch):
    # minimal_generators reads the kept record of its basis and unpacks no
    # element of it; a kernel unpacks the source-led elements and no other
    import cmreg.groebner as groebner

    calls = []
    unpacked = groebner._unpacked

    def counting(*args):
        calls.append(args)
        return unpacked(*args)

    monkeypatch.setattr(groebner, "_unpacked", counting)
    rng = random.Random(seed)
    F = GradedFreeModule(Q2, (0, 1))
    checked = 0
    for trial in range(8):
        gens = _redundant_gens(rng, F, 4)
        if not gens:
            continue
        del calls[:]
        phi = minimal_generators(gens, F)
        assert calls == []
        elim = Elimination(phi)
        assert calls == []
        ker = elim.kernel()
        source_led = sum(
            len(divs) for k, divs in elim.basis.table.items() if k >= elim.g_rank
        )
        assert len(calls) == len(ker) == source_led < len(elim.basis)
        checked += 1
    assert checked


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
    # lcm(x1*x2, x1^2) = x1^2*x2 leaves the S-element x2^3 of degree 3; the
    # S-pair pops before the degree-3 input x2^3, so supplying that element
    # as an input does not help
    F = GradedFreeModule(Q2, (0,))
    pair = [(Q2.poly("x1*x2"),), (Q2.poly("x1^2+x2^2"),)]
    for gens in (pair, pair[::-1] + [(Q2.poly("x2^3"),)]):
        with pytest.raises(DegreeCapExceeded):
            buchberger(gens, F, cap=2)
        gb = buchberger(gens, F, cap=3)
        assert normal_form((Q2.poly("x2^3"),), gb)[0].is_zero()


def _cap_outcome(gens, F, cap):
    try:
        buchberger(gens, F, cap=cap)
    except DegreeCapExceeded:
        return "raised"
    return "passed"


def test_degree_cap_outcome_ignores_input_order(seed):
    # random generators plus combinations of them in higher degrees, which
    # are exactly what S-pairs produce; whether a cap fires must depend on
    # the span alone, not on the order of the inputs
    rng = random.Random(seed)
    outcomes = set()
    for trial in range(60):
        ring = PolyRing(rng.choice((2, 3)), GF32003)
        twists = sorted(rng.randint(0, 1) for _ in range(1 + trial % 2))
        F = GradedFreeModule(ring, tuple(twists))
        gens = _random_gens(rng, F, rng.randint(2, 3), max_deg=2)
        if not gens:
            continue
        for _ in range(rng.randint(1, 2)):
            s = max(F.twists) + rng.randint(2, 3)
            v = None
            for g in gens:
                w = vec_mul_poly(g, random_poly(rng, ring, s - vec_degree(F, g)))
                v = w if v is None else vec_add(v, w)
            if not vec_is_zero(v):
                gens.append(v)
        shuffled = rng.sample(gens, len(gens))
        for cap in range(1, 6):
            outcome = _cap_outcome(gens, F, cap)
            assert _cap_outcome(shuffled, F, cap) == outcome
            outcomes.add(outcome)
    assert outcomes == {"raised", "passed"}


def _reduced_reference(elements, gb):
    """Test-local reference: the unique reduced monic basis of a submodule,
    from any list of its elements that contains a Groebner basis of it.
    Keep the elements whose leading term no kept one divides (ascending
    order puts divisors first), make them monic and replace each tail by
    its normal form against gb, any Groebner basis of the same submodule."""
    order, field = gb.order, gb.ambient.base.field
    ring = gb.ambient.base
    ordered = sorted(elements, key=lambda v: order.term_key(*order.leading_term(v)[:2]))
    out, lts = [], []
    for v in ordered:
        k, e, c = order.leading_term(v)
        if any(lk == k and monomial_divides(le, e) for lk, le, _ in lts):
            continue
        v = vec_scale(v, field.inv(c))
        lead = tuple(
            ring.monomial(e, field.one) if i == k else ring.zero for i in range(len(v))
        )
        out.append(vec_add(lead, normal_form(vec_sub(v, lead), gb)))
        lts.append((k, e, field.one))
    return GroebnerBasis(gb.ambient, order, divisor_table(out, lts, order))


def _is_minimal_and_monic(gb):
    lts = gb.leading_terms
    if any(c != gb.ambient.base.field.one for _, _, c in lts):
        return False
    if [gb.order.leading_term(v) for v in gb.elements] != lts:
        return False
    return not any(
        i != j and a[0] == b[0] and monomial_divides(a[1], b[1])
        for i, a in enumerate(lts)
        for j, b in enumerate(lts)
    )


@pytest.mark.parametrize("field", [GF32003, QQ], ids=["gf32003", "qq"])
@pytest.mark.parametrize("quotient", [False, True], ids=["poly", "quotient"])
def test_minimal_basis_matches_reduced_reference(seed, field, quotient):
    # bases are minimal, not reduced: against the reduced reference they
    # share leading terms, normal forms and spans, and tail-reduce to it
    rng = random.Random(seed)
    ring = _quotient_ring(field) if quotient else PolyRing(2, field)
    F = GradedFreeModule(ring, (0, 1))
    base = F.base
    agreed = set()
    for trial in range(8):
        gens = _redundant_gens(rng, F, 3)
        if not gens:
            continue
        gb = submodule_gb(gens, F)
        # another run on the same span: shuffled, with extra multiples
        other = submodule_gb(
            rng.sample(gens, len(gens)) + [vec_mul_poly(gens[0], base.variable(1))], F
        )
        assert _is_minimal_and_monic(gb) and _is_minimal_and_monic(other)
        ref = _reduced_reference(gb.elements + other.elements, gb)
        assert gb.leading_terms == ref.leading_terms == other.leading_terms
        assert _reduced_reference(gb.elements, gb).elements == ref.elements
        assert _reduced_reference(other.elements, other).elements == ref.elements
        ambient = GradedFreeModule(base, F.twists)
        for probe in _random_gens(rng, ambient, 4):
            assert normal_form(probe, gb) == normal_form(probe, ref)
            assert normal_form(probe, other) == normal_form(probe, ref)
        # submodule_equal against comparing reduced bases
        for gens2 in (
            [vec_scale(g, base.field(2)) for g in reversed(gens)],
            gens + _random_gens(rng, F, 1, max_deg=2),
            gens[1:],
        ):
            gb2 = submodule_gb(gens2, F)
            same = _reduced_reference(gb2.elements, gb2).elements == ref.elements
            assert submodule_equal(gens, gens2, F) == same
            agreed.add(same)
    assert agreed == {True, False}


def test_groebner_imports_nothing_from_linalg():
    # the Betti oracle's linear algebra stays independent of the Groebner side
    import ast
    from pathlib import Path

    import cmreg.groebner

    tree = ast.parse(Path(cmreg.groebner.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any("linalg" in n.split(".") for n in names):
            found.append(node.lineno)
    assert not found


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
    # minimal monic basis has leading coefficient 1
    for g, (k, e, c) in zip(gb.elements, gb.leading_terms):
        assert c == QQ(1)
