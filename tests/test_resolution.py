from __future__ import annotations

import math
import random

import pytest

import reference_resolution as ref
from helpers import (
    ci3_setup,
    cyclic_quotient,
    hypersurface_setup,
    problem_file,
    random_presentation,
    reduced_hypersurface_setup,
    two_relation_setup,
)
from cmreg import resolution
from cmreg.errors import InternalConsistencyError
from cmreg.fields import GF32003
from cmreg.freemod import (
    NEG_INF,
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    basis_vector,
    free_presentation,
    map_from_columns,
    vec_mul_poly,
)
from cmreg.groebner import minimal_generators
from cmreg.regularity import betti_oracle, present_over_Q, regularity
from cmreg.resolution import (
    BettiTable,
    FreeResolution,
    betti_table,
    minimal_presentation,
    minimize,
    resolve_over_A,
    resolve_over_Q,
)
from cmreg.rings import PolyRing, QuotientRing


def test_koszul_betti_numbers():
    # resolving K over Q gives the Koszul complex: beta_i,i = binomial(d, i)
    for d in (1, 2, 3):
        Q = PolyRing(d, GF32003)
        K = cyclic_quotient(Q, [f"x{i + 1}" for i in range(d)])
        R = resolve_over_Q(K)
        assert R.length == d
        assert R.is_complex()
        B = betti_table(R)
        for i in range(d + 1):
            assert B.beta(i, i) == math.comb(d, i)
        assert B.regularity() == 0


def test_minimal_resolution_stops_at_syzygy_bound(monkeypatch):
    # the residue field over K[x1..xd] resolves in exactly d steps
    # (test_koszul_betti_numbers); one more minimal step must be refused
    real_kernel = resolution.kernel
    for d in (1, 2, 3):
        Q = PolyRing(d, GF32003)
        K = cyclic_quotient(Q, [f"x{i + 1}" for i in range(d)])
        extra = []

        def one_syzygy_too_many(phi, cap):
            syz = real_kernel(phi, cap=cap)
            if not syz and not extra:
                extra.append(d)
                syz = [vec_mul_poly(basis_vector(phi.source, 0), Q.poly("x1"))]
            return syz

        monkeypatch.setattr(resolution, "kernel", one_syzygy_too_many)
        with pytest.raises(InternalConsistencyError):
            resolve_over_Q(K)
        assert extra == [d]


def test_free_module_regularity_is_max_twist():
    Q = PolyRing(2, GF32003)
    for j in range(-5, 6):
        assert regularity(free_presentation(Q, (j,))) == j
    assert regularity(free_presentation(Q, ())) == NEG_INF
    assert regularity(free_presentation(Q, (0, 3, -2))) == 3


def test_resolution_is_complex_and_minimal(seed):
    rng = random.Random(seed)
    Q = PolyRing(2, GF32003)
    for trial in range(10):
        M = random_presentation(rng, Q)
        R = resolve_over_Q(M)
        assert R.is_complex()
        assert R.length <= Q.nvars
        # minimality: no unit entries, so every differential lands in the
        # irrelevant ideal
        for l in range(1, R.length + 1):
            dl = R.d(l)
            for col in dl.columns():
                for p in col:
                    assert p.is_zero() or p.degree > 0


def test_minimize_agrees_with_minimal_resolution(seed):
    rng = random.Random(seed)
    Q = PolyRing(2, GF32003)
    for trial in range(8):
        M = random_presentation(rng, Q)
        Rmin = resolve_over_Q(M, minimal=True)
        Rbig = resolve_over_Q(M, minimal=False)
        assert Rbig.is_complex()
        squeezed = minimize(Rbig)
        assert squeezed.is_complex()
        assert betti_table(squeezed) == betti_table(Rmin)


def test_nonminimal_resolution_over_three_variables():
    # the 13 modules over K[x1,x2,x3] of the non-minimal Betti workload;
    # raw kernel generators at every step once ran module 9 past the length
    # bound, and minimal ones from step 2 on give it ranks 1, 3, 3, 1
    rng = random.Random(20260825)
    Q = PolyRing(3, GF32003)
    for trial in range(13):
        M = random_presentation(rng, Q, max_rels=3)
        Rbig = resolve_over_Q(M, minimal=False)
        assert Rbig.length <= Q.nvars + 1 and Rbig.is_complex()
        assert betti_table(minimize(Rbig)) == betti_oracle(M)
        # every syzygy step past d_1 already takes minimal generators
        for l in range(2, Rbig.length + 1):
            cols = Rbig.d(l).columns()
            assert len(minimal_generators(cols, Rbig.module(l - 1)).columns()) == len(cols)


def _same(R, S):
    return (R.modules, R.maps, R.complete, R.minimal) == (
        S.modules, S.maps, S.complete, S.minimal
    )


def _reference_modules(seed):
    """M and N of the shipped files and the acceptance setups, then seeded
    modules over K[x1,x2,x3] and over the ci3 ring."""
    for name in ("hypersurface", "two_relation", "reduced_hypersurface", "ci3"):
        pf = problem_file(name)
        yield pf.module("M")
        yield pf.module("N")
    for setup in (hypersurface_setup, two_relation_setup, reduced_hypersurface_setup):
        _, M, N, _ = setup()
        yield M
        yield N
    rng = random.Random(seed)
    for ring in (PolyRing(3, GF32003), ci3_setup()[0]):
        for _ in range(6):
            yield random_presentation(rng, ring, max_deg=2)


def test_resolutions_match_the_reference_loop(seed):
    # with minimal presentations the one loop takes the same steps as the
    # loop that kept a raw-kernel rule beside the minimal one
    for M in _reference_modules(seed):
        assert _same(resolve_over_A(M, cap=6), ref.resolve_over_A(M, 6))
        MQ = present_over_Q(M)
        assert _same(resolve_over_Q(MQ), ref.resolve_over_Q(MQ))


def test_minimize_matches_the_reference(seed):
    # one pass up the levels cancels what rescanning from level 1 cancels,
    # in the same order, on non-minimal resolutions from both loops
    rng = random.Random(seed)
    cancelled = 0
    for nvars in (2, 3):
        Q = PolyRing(nvars, GF32003)
        for _ in range(10):
            M = random_presentation(rng, Q, max_gens=3, max_deg=2)
            for R in (resolve_over_Q(M, minimal=False), ref.resolve_over_Q(M, False)):
                small = minimize(R)
                assert _same(small, ref.minimize(R))
                cancelled += sum(F.rank for F in R.modules)
                cancelled -= sum(F.rank for F in small.modules)
    assert cancelled > 0


def test_minimize_deletes_a_row_of_the_next_differential():
    # the unit 1 at row 1, column 0 of d_1 cancels F_0's generator of twist
    # 1 against F_1's first column, so d_2 loses its row 0; M = Q/(x1*x2)
    Q = PolyRing(2, GF32003)
    x1, x2, zero = Q.poly("x1"), Q.poly("x2"), Q.zero
    F = GradedFreeModule(Q, (0, 1))
    cols = [(x1, Q.one), (zero, x2), (Q.poly("x1*x2"), zero)]
    M = ModulePresentation(map_from_columns((1, 2, 2), F, cols))
    R = resolve_over_Q(M, minimal=False)
    assert [F.rank for F in R.modules] == [2, 3, 1]
    small = minimize(R)
    assert _same(small, ref.minimize(R))
    assert [F.rank for F in small.modules] == [1, 1, 0]
    assert betti_table(small) == betti_oracle(M)


def test_minimal_presentation_drops_redundant_generator():
    Q = PolyRing(2, GF32003)
    # two generators with g2 = x1 * g1 forced by a unit relation entry
    from cmreg.freemod import GradedFreeModule, GradedMap, ModulePresentation

    F = GradedFreeModule(Q, (0, 1))
    rel = GradedMap(
        GradedFreeModule(Q, (1,)), F, [[Q.poly("x1")], [Q.poly("-1")]]
    )
    M = ModulePresentation(rel)
    Mmin = minimal_presentation(M)
    assert Mmin.cover.rank == 1
    assert Mmin.cover.twists == (0,)
    # and it presents a free module: no relations survive
    assert Mmin.relations.source.rank == 0


def test_resolve_over_A_hypersurface_periodicity():
    Q = PolyRing(1, GF32003)
    A = QuotientRing(Q, [Q.poly("x1^2")])
    M = cyclic_quotient(A, ["x1"])
    R = resolve_over_A(M, cap=6)
    assert not R.complete
    assert R.is_complex()
    assert R.twist_lists() == [[l] for l in range(7)]
    x = A.poly("x1")
    for l in range(1, 7):
        assert R.d(l).matrix[0][0] == x


@pytest.mark.parametrize(
    "name, start, s",
    [("hypersurface", 3, 2), ("two_relation", 3, 3), ("reduced_hypersurface", 3, 2), ("ci3", 5, 2)],
)
def test_repeats_on_the_shipped_problems(name, start, s):
    # the resolutions the sweep builds: periodic with shift s from index
    # start on, and no answer below it or past the computed length
    pf = problem_file(name)
    R = resolve_over_A(pf.module("M"), cap=2 * pf.params["imax"] + 2)
    assert not R.complete
    assert [R.repeats(k) for k in range(R.length + 3)] == (
        [None] * start + [s] * (R.length - start) + [None] * 3
    )
    for k in range(start, R.length):
        assert R.d(k) == R.d(k - 2).shift(s)


def test_repeats_is_none_on_a_rank_zero_or_complete_tail():
    Q = PolyRing(2, GF32003)
    A = QuotientRing(Q, [Q.poly("x1*x2")])
    R = resolve_over_A(free_presentation(A, (0, 2)), cap=5)
    assert [R.repeats(k) for k in range(6)] == [None] * 6
    # A/(x1) over A = K[x1, x2]/(x1*x2) is 2-periodic with shift 2: cut at
    # length 4, index 3 still has d_4, index 4 has no d_5
    R = resolve_over_A(cyclic_quotient(A, ["x1"]), cap=4)
    assert [R.repeats(k) for k in range(6)] == [None] * 3 + [2] + [None] * 2
    # a hand-built complex with F_3 = 0 inside its length gives no shift
    F, Z = GradedFreeModule(A, (0,)), GradedFreeModule(A, ())
    zero = [GradedMap(Z, F, [[]])] + [GradedMap(Z, Z, [])] * 3
    assert FreeResolution(A, [F] + [Z] * 4, zero).repeats(3) is None


def test_resolve_over_A_finite_case_terminates():
    # a free module over A resolves in length 0 and is marked complete
    Q = PolyRing(2, GF32003)
    A = QuotientRing(Q, [Q.poly("x1*x2")])
    R = resolve_over_A(free_presentation(A, (0, 2)), cap=5)
    assert R.complete
    assert R.length == 0
    assert R.twist_lists() == [[0, 2]]


def test_betti_table_str_and_dict():
    Q = PolyRing(2, GF32003)
    K = cyclic_quotient(Q, ["x1", "x2"])
    B = betti_table(resolve_over_Q(K))
    d = B.to_dict()
    entries = {(i, j): b for i, j, b in d["entries"]}
    assert entries[(1, 1)] == 2 and entries[(2, 2)] == 1
    assert d["minimal"] is True
    text = str(B)
    assert "total" in text or "0" in text
    assert B == BettiTable(entries)
    assert B.max_index() == 2
