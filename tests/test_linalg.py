from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cmreg.fields import GF32003, QQ
from cmreg.linalg import (
    in_row_span,
    rank,
    reduce_vector,
    row_reduce,
)

matrices = st.lists(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


def _q(rows):
    return [[QQ(c) for c in row] for row in rows]


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_rref_shape_and_rank(rows):
    rows = _q(rows)
    rref, pivots = row_reduce(rows, QQ)
    assert len(rref) == len(pivots)
    # each pivot column holds a single 1
    for r, c in enumerate(pivots):
        assert rref[r][c] == 1
        assert all(rref[s][c] == 0 for s in range(len(rref)) if s != r)
    assert rank(rows, QQ) == len(pivots)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_reduce_vector_span_membership(rows):
    rows = _q(rows)
    rref, pivots = row_reduce(rows, QQ)
    for row in rows:
        assert in_row_span(row, rref, pivots, QQ)
        residual = reduce_vector(row, rref, pivots, QQ)
        assert all(c == 0 for c in residual)
    probe = [QQ(1), QQ(2), QQ(3)]
    residual = reduce_vector(probe, rref, pivots, QQ)
    # residual is supported away from the pivot columns
    assert all(residual[c] == 0 for c in pivots)


def test_prime_field_path():
    rows = [[GF32003(2), GF32003(4)], [GF32003(1), GF32003(2)]]
    assert rank(rows, GF32003) == 1
