from __future__ import annotations

import pytest

from helpers import vector_coords
from reference_pieces import piece_basis, span_matrix
from cmreg.errors import HomogeneityError
from cmreg.fields import GF32003
from cmreg.freemod import (
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    basis_vector,
    free_presentation,
    map_from_columns,
    vec_degree,
)
from cmreg.regularity import hilbert_function
from cmreg.rings import PolyRing, QuotientRing

Q = PolyRing(2, GF32003)
A = QuotientRing(Q, [Q.poly("x1*x2")])


def test_twist_conventions():
    F = GradedFreeModule(Q, (0, 2))
    assert F.shift(3).twists == (3, 5)
    # F.twist(m) is F(m): generator degrees drop by m
    assert F.twist(1).twists == (-1, 1)


def test_vec_degree_and_homogeneity():
    F = GradedFreeModule(Q, (0, 1))
    v = (Q.poly("x1^2"), Q.poly("x2"))
    assert vec_degree(F, v) == 2
    w = (Q.poly("x1"), Q.poly("x2"))
    with pytest.raises(HomogeneityError):
        vec_degree(F, w)
    assert vec_degree(F, (Q.zero, Q.zero)) is None


def test_piece_basis_dimensions():
    # Q(0) + Q(-1): dim in degree s is (s+1) + s
    F = GradedFreeModule(Q, (0, 1))
    assert len(piece_basis(F, 2)) == 3 + 2
    # over A = Q/(x1x2) only pure powers survive
    FA = GradedFreeModule(A, (0,))
    assert len(piece_basis(FA, 3)) == 2
    assert piece_basis(F, -1) == []


def test_vector_coords_roundtrip():
    F = GradedFreeModule(Q, (0, 1))
    basis = piece_basis(F, 2)
    v = (Q.poly("x1^2 + 3*x2^2"), Q.poly("x1"))
    coords = vector_coords(F, v, 2, basis)
    rebuilt = [Q.zero, Q.zero]
    for (k, exps), c in zip(basis, coords):
        if c:
            rebuilt[k] = rebuilt[k] + Q.monomial(exps, c)
    assert tuple(rebuilt) == v


def test_span_matrix_counts_monomial_multiples():
    F = GradedFreeModule(Q, (0,))
    rows = span_matrix(F, [(Q.poly("x1"),)], 2)
    # x1*x1 and x2*x1 give two independent rows in the degree-2 piece
    from cmreg.linalg import rank

    assert rank(rows, GF32003) == 2


def test_graded_map_homogeneity_and_apply():
    F = GradedFreeModule(Q, (1,))
    G = GradedFreeModule(Q, (0,))
    phi = GradedMap(F, G, [[Q.poly("x1")]])
    assert phi.is_homogeneous()
    v = phi.apply(basis_vector(F, 0))
    assert v[0] == Q.poly("x1")
    with pytest.raises(HomogeneityError):
        GradedMap(F, G, [[Q.poly("x1^2")]])


def test_map_compose_and_shift():
    F2 = GradedFreeModule(Q, (2,))
    F1 = GradedFreeModule(Q, (1,))
    F0 = GradedFreeModule(Q, (0,))
    a = GradedMap(F1, F0, [[Q.poly("x1")]])
    b = GradedMap(F2, F1, [[Q.poly("x2")]])
    c = a.compose(b)
    assert c.matrix[0][0] == Q.poly("x1*x2")
    assert c.shift(5).source.twists == (7,)


def test_presentation_shift_law():
    M = ModulePresentation(
        GradedMap(GradedFreeModule(Q, (1,)), GradedFreeModule(Q, (0,)), [[Q.poly("x1")]])
    )
    assert M.shift(2).generator_degrees == (-2,)
    assert M.shift(2).relations.source.twists == (-1,)


def test_presentation_hilbert_known_values():
    # Q/(x1) in two variables: one dimension per degree
    M = ModulePresentation(
        GradedMap(GradedFreeModule(Q, (1,)), GradedFreeModule(Q, (0,)), [[Q.poly("x1")]])
    )
    assert hilbert_function(M, 0, 3) == [1, 1, 1, 1]
    F = free_presentation(Q, (0,))
    assert hilbert_function(F, 0, 2) == [1, 2, 3]
    # A itself as an A-module: 1, 2, 2, 2, ...
    MA = free_presentation(A, (0,))
    assert hilbert_function(MA, 0, 3) == [1, 2, 2, 2]


def test_map_from_columns_orientation():
    G = GradedFreeModule(Q, (0, 1))
    cols = [(Q.poly("x1^2"), Q.poly("x2"))]
    phi = map_from_columns((2,), G, cols)
    assert phi.column(0) == cols[0]
    assert phi.matrix[0][0] == Q.poly("x1^2")
    assert phi.matrix[1][0] == Q.poly("x2")
