from __future__ import annotations

import math
import random

import pytest

from helpers import cyclic_quotient, random_presentation
from cmreg import resolution
from cmreg.errors import InternalConsistencyError
from cmreg.fields import GF32003
from cmreg.freemod import (
    NEG_INF,
    basis_vector,
    free_presentation,
    map_from_columns,
    vec_mul_poly,
)
from cmreg.regularity import regularity
from cmreg.resolution import (
    BettiTable,
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
    real_extend = resolution._extend
    for d in (1, 2, 3):
        Q = PolyRing(d, GF32003)
        K = cyclic_quotient(Q, [f"x{i + 1}" for i in range(d)])
        extra = []

        def one_step_too_many(current, degree_cap, minimal=True):
            nxt = real_extend(current, degree_cap, minimal=minimal)
            if nxt is None and not extra:
                F = current.source
                extra.append(d)
                col = vec_mul_poly(basis_vector(F, 0), Q.poly("x1"))
                nxt = map_from_columns((F.twists[0] + 1,), F, [col])
            return nxt

        monkeypatch.setattr(resolution, "_extend", one_step_too_many)
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
