from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

import cmreg.groebner
import cmreg.rees
from helpers import (
    ci3_setup,
    cyclic_quotient,
    hypersurface_setup,
    problem_file,
    random_poly,
    random_presentation,
    reduced_hypersurface_setup,
    two_relation_setup,
)
from reference_pieces import span_matrix
from cmreg.errors import ReductionPreconditionError
from cmreg.fields import GF32003
from cmreg.freemod import (
    NEG_INF,
    GradedFreeModule,
    free_presentation,
    scaled_basis,
    vec_degree,
    vec_is_zero,
)
from cmreg.groebner import submodule_contains, submodule_equal, submodule_gb
from cmreg.linalg import rank
from cmreg.rees import (
    IdealData,
    is_reduction,
    power_module,
    quotient_module,
    rho_upper,
    unit_ideal,
)
from cmreg.regularity import hilbert_function, regularity
from cmreg.rings import PolyRing


def _setup66():
    return reduced_hypersurface_setup()


def test_power_module_gold():
    # I = (x), N = (x) over K[X,Y]/(XY): I^n N = (x^{n+1}) = K[x](-n-1),
    # so reg I^n N = n + 1
    A, M, N, I = _setup66()
    for n in range(5):
        assert regularity(power_module(I, n, N)) == n + 1
    # I^0 N is N itself
    assert power_module(I, 0, N) is N


def test_quotient_module_gold():
    # N / I^n N = Kx + ... + Kx^n has reg n for n >= 1, and is zero at n = 0
    A, M, N, I = _setup66()
    assert regularity(quotient_module(N, I, 0)) == NEG_INF
    for n in range(1, 5):
        assert regularity(quotient_module(N, I, n)) == n


def test_coefficient_modules_match_linear_algebra():
    # dim (I^n N)_s is the rank of the degree-s span of the degree-n
    # products of I's generators times N's cover basis, plus N's relations,
    # less the rank of the relations' span; dim (N / I^n N)_s = dim N_s
    # less that.  Spans and ranks come from span_matrix, with no Groebner
    # basis beyond the ring's own (z)
    for name in ("hypersurface", "two_relation", "reduced_hypersurface", "ci3"):
        pf = problem_file(name)
        I, N = pf.ideal("I"), pf.module("N")
        F, field = N.cover, N.ring.field
        psi = N.relations.columns()
        zero = N.ring.zero
        for n in range(4):
            prods = [
                prod(pick, start=N.ring.one)
                for pick in combinations_with_replacement(I.generators, n)
            ]
            gens = [
                tuple(p if j == k else zero for j in range(F.rank))
                for p in prods
                for k in range(F.rank)
            ]
            lo = min(F.twists)
            hi = max(F.twists) + n * max(I.degrees, default=0) + 3
            rel_dim = [rank(span_matrix(F, psi, s), field) for s in range(lo, hi + 1)]
            span = [rank(span_matrix(F, gens + psi, s), field) for s in range(lo, hi + 1)]
            power = [a - b for a, b in zip(span, rel_dim)]
            assert hilbert_function(power_module(I, n, N), lo, hi) == power, (name, n)
            N_dim = hilbert_function(N, lo, hi)
            assert hilbert_function(quotient_module(N, I, n), lo, hi) == [
                a - b for a, b in zip(N_dim, power)
            ], (name, n)


def test_unit_ideal_powers_fix_everything():
    A, M, N, I = hypersurface_setup()
    assert I.improper
    for n in range(3):
        assert power_module(I, n, N) is N
    # N / A^n N = 0 for every n
    for n in range(3):
        assert regularity(quotient_module(N, I, n)) == NEG_INF


def test_improper_matches_membership_of_one():
    # the reference is the Groebner answer IdealData gave before it read
    # improper off the generator degrees: is 1 in the span of I?
    rng = random.Random(20261021)
    Q2 = PolyRing(2, GF32003)
    Q3 = PolyRing(3, GF32003)
    rings = [
        Q2,
        Q3,
        Q2.quotient([Q2.poly("x1^2")]),
        Q3.quotient([Q3.poly("x1^2"), Q3.poly("x2^2 - x1*x3")]),
    ]
    answers = []
    for ring in rings:
        F = GradedFreeModule(ring, (0,))
        ideals = [IdealData(ring, []), IdealData(ring, list(ring.relations))]
        for _ in range(12):
            gens = [
                random_poly(rng, ring, rng.randint(0, 3))
                for _ in range(rng.randint(1, 3))
            ]
            ideals.append(IdealData(ring, gens + list(ring.relations)))
        for I in ideals:
            gb = submodule_gb([(g,) for g in I.generators], F)
            one = bool(I.generators) and submodule_contains(gb, (ring.base.one,))
            assert I.improper == one
            answers.append((I.is_zero, one))
    assert {(True, False), (False, False), (False, True)} <= set(answers)


def test_is_reduction_and_certificate():
    A, M, N, I = _setup66()
    # I is a reduction of itself with witness 0
    assert is_reduction(I, I, N, n_max=2) == 0
    # the zero ideal is not a reduction of (x) on N = (x)
    assert is_reduction(IdealData(A, []), I, N, n_max=3) is None
    # a candidate not inside I is rejected outright
    J = IdealData(A, [A.poly("x2")])
    with pytest.raises(ReductionPreconditionError):
        is_reduction(J, I, N, n_max=2)


def _power_products(I, n):
    """Every product of n generators of I (repeats allowed), as Q-polys."""
    out = []
    for pick in combinations_with_replacement(I.generators, n):
        p = I.ring.base.one
        for g in pick:
            p = p * g
        out.append(p)
    return out


def _two_sided_witness(J, I, N, n_max):
    """Least n <= n_max with I^{n+1}N = J I^n N, decided by comparing the
    two spans both ways with submodule_equal; None if there is none."""
    F = N.cover
    psi = [c for c in N.relations.columns() if not vec_is_zero(c)]
    for n in range(n_max + 1):
        lhs = scaled_basis(F, _power_products(I, n + 1)) + psi
        jin = [y * p for y in J.generators for p in _power_products(I, n)]
        if submodule_equal(lhs, scaled_basis(F, jin) + psi, F):
            return n
    return None


def _rank_witness(J, I, N, n_max):
    """Least n <= n_max with I^{n+1}N <= J I^n N, by linear algebra alone:
    in each degree s of a generator of I^{n+1}N, the span of J I^n N's
    generators and N's relations has the rank it has with I^{n+1}N's
    generators added; None if there is none."""
    F = N.cover
    field = F.base.field
    psi = [c for c in N.relations.columns() if not vec_is_zero(c)]
    for n in range(n_max + 1):
        top = [v for v in scaled_basis(F, _power_products(I, n + 1)) if not vec_is_zero(v)]
        jin = scaled_basis(F, [y * p for y in J.generators for p in _power_products(I, n)])
        if all(
            rank(span_matrix(F, jin + psi, s), field)
            == rank(span_matrix(F, jin + psi + top, s), field)
            for s in {vec_degree(F, v) for v in top}
        ):
            return n
    return None


def test_is_reduction_matches_linear_algebra():
    # rho_upper's pool on the shipped problems (the zero ideal, each J_t,
    # the candidates and I), a J_t that wins over I, a J that never reduces,
    # and I^2 = J I with J = (x1^2, x2^2), I = (x1, x2)^2; J <= I holds in
    # every case, so the one containment decides equality
    cases = []
    for name in ("hypersurface", "two_relation", "reduced_hypersurface", "ci3"):
        pf = problem_file(name)
        I, N = pf.ideal("I"), pf.module("N")
        pool = [IdealData(I.ring, [])]
        for t in sorted(set(I.degrees))[:-1]:
            pool.append(IdealData(I.ring, [g for g in I.generators if g.degree <= t]))
        pool += [pf.ideal(c) for c in pf.params.get("candidates", ())] + [I]
        cases += [(J, I, N) for J in pool]
    Q3 = PolyRing(3, GF32003)
    I = IdealData(Q3, [Q3.poly(p) for p in ("x1", "x2^2", "x2*x3", "x3^2")])
    N = cyclic_quotient(Q3, ["x2", "x3"])
    cases += [(IdealData(Q3, []), I, N), (IdealData(Q3, [Q3.poly("x1")]), I, N), (I, I, N)]
    # (x1^2) is no reduction of (x1^2, x1*x2), though I^2 <= (x1^2)
    Q2 = PolyRing(2, GF32003)
    Q2free = free_presentation(Q2, (0,))
    I = IdealData(Q2, [Q2.poly("x1^2"), Q2.poly("x1*x2")])
    cases.append((IdealData(Q2, [Q2.poly("x1^2")]), I, Q2free))
    cases.append((
        IdealData(Q2, [Q2.poly("x1^2"), Q2.poly("x2^2")]),
        IdealData(Q2, [Q2.poly("x1^2"), Q2.poly("x1*x2"), Q2.poly("x2^2")]),
        Q2free,
    ))
    witnesses = [is_reduction(J, I, N, n_max=3) for J, I, N in cases]
    assert witnesses == [_rank_witness(J, I, N, 3) for J, I, N in cases]
    assert witnesses[-2:] == [None, 1] and 0 in witnesses


def test_is_reduction_matches_the_two_sided_check(seed):
    # J <= I makes J I^n N <= I^{n+1} N, so is_reduction checks only the
    # other containment; the witness must be the one equality gives
    rng = random.Random(seed)
    Q2 = PolyRing(2, GF32003)
    cases = [
        # I^2 = J I with J = (x1^2, x2^2) and I = (x1, x2)^2, but I != J
        (
            IdealData(Q2, [Q2.poly("x1^2"), Q2.poly("x2^2")]),
            IdealData(Q2, [Q2.poly("x1^2"), Q2.poly("x1*x2"), Q2.poly("x2^2")]),
            free_presentation(Q2, (0,)),
        )
    ]
    for setup in (
        hypersurface_setup, two_relation_setup, reduced_hypersurface_setup, ci3_setup
    ):
        A = setup()[0]
        for _ in range(6):
            gens = [random_poly(rng, A, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            I = IdealData(A, gens)
            picks = [g for g in I.generators if rng.random() < 0.5]
            multiples = [
                g * random_poly(rng, A, 1) for g in I.generators if rng.random() < 0.5
            ]
            cases.append(
                (IdealData(A, picks + multiples), I, random_presentation(rng, A, max_deg=2))
            )
    witnesses = []
    for J, I, N in cases:
        witness = is_reduction(J, I, N, n_max=2)
        assert witness == _two_sided_witness(J, I, N, 2)
        witnesses.append(witness)
    assert witnesses[0] == 1
    assert {None, 0} <= set(witnesses)


def _buchberger_inputs(monkeypatch):
    """The gens list of every groebner.buchberger run from here on."""
    inputs = []
    inner = cmreg.groebner.buchberger

    def recording(gens, *args, **kwargs):
        inputs.append(list(gens))
        return inner(gens, *args, **kwargs)

    monkeypatch.setattr(cmreg.groebner, "buchberger", recording)
    return inputs


@pytest.mark.parametrize(
    "name, calls",
    [("hypersurface", 1), ("two_relation", 1), ("reduced_hypersurface", 1), ("ci3", 1)],
)
def test_rho_upper_buchberger_calls_on_the_shipped_problems(monkeypatch, name, calls):
    # verify's rho_upper call: one basis of N's relations for the zero
    # ideal, shared by every n; I and the candidate equal to it certify at
    # n = 0 from their generators, and no J <= I check needs a basis of I
    pf = problem_file(name)
    candidates = [pf.ideal(c) for c in pf.params.get("candidates", ())]
    inputs = _buchberger_inputs(monkeypatch)
    rho_upper(pf.ideal("I"), pf.module("N"), candidates=candidates)
    assert len(inputs) == calls


def test_is_reduction_of_the_zero_ideal_builds_one_basis(monkeypatch):
    # J = 0 makes J I^n N = 0, so the basis of N's relations serves every n
    # (the zero ideal is no reduction of (x) on N = (x): all four n run)
    A, M, N, I = _setup66()
    zero = IdealData(A, [])
    inputs = _buchberger_inputs(monkeypatch)
    witness = is_reduction(zero, I, N, n_max=3)
    assert len(inputs) == 1
    assert witness is None


def test_is_reduction_of_a_subset_builds_no_basis_of_I(monkeypatch):
    # J = (x1^2, x2^2) is made of I's own generators, so J <= I needs no
    # basis of I = (x1, x2)^2: one basis of J I^n N for n = 0, 1 and no other
    Q = PolyRing(2, GF32003)
    I = IdealData(Q, [Q.poly("x1^2"), Q.poly("x1*x2"), Q.poly("x2^2")])
    J = IdealData(Q, [Q.poly("x1^2"), Q.poly("x2^2")])
    inputs = _buchberger_inputs(monkeypatch)
    witness = is_reduction(J, I, free_presentation(Q, (0,)), n_max=3)
    basis_of_I = [(g,) for g in I.generators]
    assert not any(all(v in gens for v in basis_of_I) for gens in inputs)
    assert len(inputs) == 2
    assert witness == 1


def test_is_reduction_of_I_by_itself_builds_no_basis(monkeypatch):
    # I and a separate IdealData of the same generators: J = I at n = 0
    cases = []
    for setup in (
        hypersurface_setup, two_relation_setup, reduced_hypersurface_setup, ci3_setup
    ):
        A, M, N, I = setup()
        cases += [(I, I, N), (IdealData(A, list(I.generators)), I, N)]
    inputs = _buchberger_inputs(monkeypatch)
    witnesses = [is_reduction(J, I, N, n_max=3) for J, I, N in cases]
    assert inputs == []
    assert witnesses == [0] * len(cases)


def test_rho_upper_raises_on_a_candidate_outside_I():
    # (x1) sorts between the zero ideal, which fails on N = Q, and I, so
    # rho_upper reaches it and its J <= I check runs on a basis of I
    Q = PolyRing(2, GF32003)
    I = IdealData(Q, [Q.poly("x1^2"), Q.poly("x2^3")])
    N = free_presentation(Q, (0,))
    with pytest.raises(ReductionPreconditionError):
        rho_upper(I, N, candidates=[IdealData(Q, [Q.poly("x1")])])
    # all of I's generators and one more outside I is no way round the check
    J = IdealData(Q, [Q.poly("x1^2"), Q.poly("x2^3"), Q.poly("x1*x2")])
    with pytest.raises(ReductionPreconditionError):
        is_reduction(J, I, N, n_max=1)


def test_rho_upper_values():
    # the unit ideal is improper, I^n N = N for all n, and it is its own
    # best reduction with d = 0
    A, M, N, I = hypersurface_setup()
    J, n = rho_upper(I, N)
    assert (J.d1(), n) == (0, 0)
    # principal ideal (x) on N = (x): rho upper bound is d((x)) = 1
    A, M, N, I = _setup66()
    J, n = rho_upper(I, N, n_max=3)
    assert (J.d1(), n) == (1, 0)
    # n = 0 is the first horizon at which I certifies itself
    with pytest.raises(ValueError):
        rho_upper(I, N, n_max=-1)


def _power_set_rho(I, N, n_max=3):
    """The former rho_upper, kept as a reference: every subset of the
    minimal generators of I and I itself, sorted by (d(J), size); the first
    certified one gives the bound."""
    b = len(I.generators)
    pool = [
        IdealData(I.ring, [I.generators[t] for t in pick])
        for size in range(b + 1)
        for pick in combinations(range(b), size)
    ]
    pool.append(I)
    pool.sort(key=lambda J: (J.d1(), len(J.generators)))
    for J in pool:
        if is_reduction(J, I, N, n_max) is not None:
            return J.d1()


def _random_monomial(rng, Q, degree):
    exps = [0] * Q.nvars
    for _ in range(degree):
        exps[rng.randrange(Q.nvars)] += 1
    return Q.from_terms({tuple(exps): 1})


def test_rho_upper_matches_the_power_set_search(seed):
    # one J_t per generator degree gives the value every subset would: a
    # reducing subset of degree <= t lies in J_t, which then reduces too
    rng = random.Random(seed)
    Q3 = PolyRing(3, GF32003)
    # (x1) reduces (x1, x2^2, x2*x3, x3^2) on Q/(x2, x3): J_1 wins, not I
    cases = [
        (
            IdealData(Q3, [Q3.poly(p) for p in ("x1", "x2^2", "x2*x3", "x3^2")]),
            cyclic_quotient(Q3, ["x2", "x3"]),
        )
    ]
    for setup in (
        hypersurface_setup, two_relation_setup, reduced_hypersurface_setup, ci3_setup
    ):
        A = setup()[0]
        for _ in range(8):
            gens = [random_poly(rng, A, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            cases.append((IdealData(A, gens), random_presentation(rng, A, max_deg=2)))
    Q4 = PolyRing(4, GF32003)
    for _ in range(20):
        gens = [_random_monomial(rng, Q4, rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        I = IdealData(Q4, gens)
        cases.append((I, free_presentation(Q4, (0,))))
        cases.append((I, cyclic_quotient(Q4, [f"x{rng.randint(1, 4)}"])))
    values = []
    for I, N in cases:
        value = rho_upper(I, N)[0].d1()
        assert value == _power_set_rho(I, N)
        values.append(value)
    assert 0 < values[0] < cases[0][0].d1()


def test_rho_upper_finds_a_reduction_among_nine_generators():
    # I = (x1, eight quadrics in x2..x5) on N = Q/(x2..x5): the quadrics
    # kill N, so (x1) N = I N and (x1) is a reduction at n = 0
    Q = PolyRing(5, GF32003)
    quadrics = [Q.poly(f"x{a}*x{b}") for a, b in combinations_with_replacement(range(2, 6), 2)]
    I = IdealData(Q, [Q.poly("x1")] + quadrics[:8])
    assert len(I.generators) == 9
    J, n = rho_upper(I, cyclic_quotient(Q, ["x2", "x3", "x4", "x5"]))
    assert (J.d1(), n) == (1, 0)


def test_rho_upper_reduction_tests_per_generator_degree(monkeypatch):
    # eight quadrics over K[x1..x4] on N = Q: one reduction test per pool
    # ideal (the zero ideal, I and one J_t per lower degree), not one per
    # subset of the generators
    Q = PolyRing(4, GF32003)
    quadrics = [Q.poly(f"x{a}*x{b}") for a, b in combinations_with_replacement(range(1, 5), 2)]
    I = IdealData(Q, quadrics[:8])
    calls = []
    inner = cmreg.rees.is_reduction

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cmreg.rees, "is_reduction", counting)
    J, _ = rho_upper(I, free_presentation(Q, (0,)))
    assert J.d1() == 2
    assert len(calls) <= len(set(I.degrees)) + 2


def test_rho_upper_principal_higher_degree():
    # I = (x^2) over K[X]: the only reductions are (x^2) and itself, d = 2
    Q = PolyRing(1, GF32003)
    N = free_presentation(Q, (0,))
    I = IdealData(Q, [Q.poly("x1^2")])
    J, n = rho_upper(I, N, n_max=2)
    assert J.generators == I.generators and n == 0


def test_d1_conventions():
    Q = PolyRing(2, GF32003)
    assert unit_ideal(Q).d1() == 0
    assert IdealData(Q, []).d1() == 0
    assert IdealData(Q, [Q.poly("x1^2"), Q.poly("x2")]).d1() == 2


def test_power_quotient_exact_sequence_regularity():
    # 0 -> I^n N -> N -> N/I^n N -> 0 sanity via the regularity bounds
    A, M, N, I = _setup66()
    rn = regularity(N)
    for n in range(1, 4):
        rp = regularity(power_module(I, n, N))
        rq = regularity(quotient_module(N, I, n))
        assert rn <= max(rp, rq)
        assert rq <= max(rp - 1, rn)
