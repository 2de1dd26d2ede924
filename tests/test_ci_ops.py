from __future__ import annotations

import random

from helpers import (
    hypersurface_setup,
    random_presentation,
    reduced_hypersurface_setup,
    two_relation_setup,
)
import cmreg.ci_ops
from cmreg.ci_ops import (
    PresentationMap,
    eisenbud_operators,
    induced_on_ext,
    lift_resolution,
    operators_commute,
)
from cmreg.ext_tor import ext
from cmreg.fields import GF32003
from cmreg.freemod import GradedMap, free_presentation
from cmreg.resolution import FreeResolution, resolve_over_A
from cmreg.rings import PolyRing, QuotientRing


def _ops(M, cap=6):
    R = resolve_over_A(M, cap=cap)
    return eisenbud_operators(R)


def test_lift_preserves_shape():
    A, M, N, I = two_relation_setup()
    R = resolve_over_A(M, cap=5)
    L = lift_resolution(R)
    assert isinstance(L, FreeResolution)
    assert L.ring is A.base
    assert L.length == R.length
    for l in range(R.length + 1):
        assert L.module(l).twists == R.module(l).twists


def test_factorization_identity_all_setups():
    # d~ o d~ = sum_j z_j t~_j, rechecked by direct arithmetic over Q
    for setup in (hypersurface_setup, two_relation_setup, reduced_hypersurface_setup):
        A, M, N, I = setup()
        T = _ops(M)
        assert T.fs == tuple(z.degree for z in A.relations)
        for l in T.levels():
            assert T.identity_holds(l)


def test_operator_shapes_and_degrees():
    A, M, N, I = two_relation_setup()
    T = _ops(M)
    R = T.resolution
    assert len(T.fs) == 2 and T.fs == (2, 3) and T.f == 2
    for j in range(len(T.fs)):
        for l in T.levels():
            tj = T.t(j, l)
            assert tj.source.twists == R.module(l).twists
            down = R.module(l - 2).shift(T.fs[j])
            assert tj.target.twists == down.twists


def test_hypersurface_operator_is_unit():
    # over K[X]/(X^2) with M = A/(x) the lifted d's compose to x^2 times a
    # unit, so t~ is an isomorphism at every level
    A, M, N, I = hypersurface_setup()
    T = _ops(M)
    for l in T.levels():
        entry = T.t(0, l).matrix[0][0]
        assert not entry.is_zero() and entry.degree == 0


def test_induced_map_on_ext_hypersurface():
    # chi : Ext^0 -> Ext^2(-2) matches the periodicity isomorphism
    A, M, N, I = hypersurface_setup()
    T = _ops(M)
    chi = induced_on_ext(T, 0, 0, N)
    assert chi.source.cover.twists == chi.target.cover.twists
    entry = chi.map.matrix[0][0]
    assert not entry.is_zero() and entry.degree == 0


def test_induced_map_on_a_zero_ext_module():
    # over A = K[x]/(x^2), Ext^i(A/(x), A) is A/(x) at i = 0 and zero above,
    # so chi_0 has an empty target at i = 0 and empty source and target at 1
    A, M, _, _ = hypersurface_setup()
    T = _ops(M)
    N = free_presentation(A, (0,))
    chi = induced_on_ext(T, 0, 0, N)
    assert chi.source.cover.rank == 1 and chi.target.cover.rank == 0
    assert chi.map.matrix == ()
    chi = induced_on_ext(T, 0, 1, N)
    assert chi.source.cover.rank == chi.target.cover.rank == 0


def test_induced_maps_two_relation():
    # chi for z = Y^3 is an isomorphism Ext^0 -> Ext^2(-3); chi for z = X^2
    # is zero since the resolution only moves by powers of y
    A, M, N, I = two_relation_setup()
    T = _ops(M)
    chi_y = induced_on_ext(T, 1, 0, N)
    entry = chi_y.map.matrix[0][0]
    assert not entry.is_zero() and entry.degree == 0
    chi_x = induced_on_ext(T, 0, 0, N)
    zero = PresentationMap(
        chi_x.source,
        chi_x.target,
        GradedMap(
            chi_x.map.source,
            chi_x.map.target,
            [
                [A.base.zero for _ in range(chi_x.map.source.rank)]
                for _ in range(chi_x.map.target.rank)
            ],
        ),
    )
    assert chi_x.equals_mod_relations(zero)


def test_operators_commute_two_relation():
    A, M, N, I = two_relation_setup()
    T = _ops(M, cap=8)
    for i in (0, 1, 2):
        assert operators_commute(T, N, i, 0, 1)


def test_presentation_map_shift_and_compose():
    A, M, N, I = hypersurface_setup()
    T = _ops(M)
    chi0 = induced_on_ext(T, 0, 0, N)
    chi2 = induced_on_ext(T, 0, 2, N).shift(-T.fs[0])
    square = chi2.compose(chi0)
    # chi^2 : Ext^0 -> Ext^4(-4) is still a unit on covers
    entry = square.map.matrix[0][0]
    assert not entry.is_zero() and entry.degree == 0
    # shifting twice by opposite amounts round-trips the twists
    back = square.shift(3).shift(-3)
    assert back.source.cover.twists == square.source.cover.twists
    assert back.target.cover.twists == square.target.cover.twists


def test_ext_against_operator_composition():
    # the operator-composed target lives where ext() itself puts Ext^{i+2}
    A, M, N, I = hypersurface_setup()
    T = _ops(M)
    chi = induced_on_ext(T, 0, 1, N)
    E3 = ext(None, N, 3, resolution=T.resolution)
    assert chi.target.cover.twists == E3.presentation.shift(-T.fs[0]).cover.twists


def test_random_modules_where_cofactors_are_not_unique(seed):
    # with two relations the z-coefficients of an entry of d~^2 are defined
    # only up to the Koszul syzygy (z_2, -z_1); whichever ones come out must
    # still satisfy the identity and give commuting operators on Ext
    Q2 = PolyRing(2, GF32003)
    Q3 = PolyRing(3, GF32003)
    rings = (
        QuotientRing(Q2, [Q2.poly("x1^2"), Q2.poly("x2^3")]),
        QuotientRing(Q3, [Q3.poly("x1^2"), Q3.poly("x2^2 - x1*x3")]),
    )
    for A in rings:
        rng = random.Random(seed)
        for trial in range(7):
            M = random_presentation(rng, A)
            T = _ops(M, cap=5)
            for l in T.levels():
                assert T.identity_holds(l)
            if T.levels():
                assert operators_commute(T, M, 0, 0, 1)


def test_induced_on_ext_reuses_the_ext_elimination(monkeypatch):
    # chi_j writes its images with the Elimination that presented Ext^{i+2}
    # and builds none of its own
    A, M, N, I = two_relation_setup()
    T = _ops(M)
    calls = []
    real = cmreg.ci_ops.Elimination

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cmreg.ci_ops, "Elimination", counting)
    for j in range(len(T.fs)):
        for i in range(3):
            chi = induced_on_ext(T, j, i, N)
            assert chi.source.cover.rank and chi.target.cover.rank
    assert calls == []
