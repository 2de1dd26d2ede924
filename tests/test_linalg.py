from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cmreg.fields import GF32003, QQ, PrimeField
from cmreg.linalg import (
    echelon,
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


# -- the kernel against the plain dense Gauss-Jordan it replaced --------------


def _reference_row_reduce(rows, field):
    """Textbook dense Gauss-Jordan: first nonzero row as pivot, every cell
    of every row updated."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != field.zero), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _reference_reduce_vector(vec, rref_rows, pivots, field):
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        if v[p] != field.zero:
            f = v[p]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return v


FIELDS = [PrimeField(2), PrimeField(7), GF32003, QQ]


@st.composite
def field_matrices(draw):
    """A field, a matrix of any shape (wide, tall, without columns) whose
    density ranges from all-zero to full, with some zero rows and columns,
    and a probe vector."""
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    zero_cols = {c for c in range(ncols) if rng.random() < 0.2}

    def cell(c):
        if c in zero_cols or rng.random() >= density:
            return field.zero
        return field(rng.randint(-20, 20))

    rows = [
        [field.zero] * ncols if rng.random() < 0.2 else [cell(c) for c in range(ncols)]
        for _ in range(nrows)
    ]
    probe = [field(rng.randint(-20, 20)) for _ in range(ncols)]
    return field, rows, probe


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_row_reduce_matches_dense_reference(case):
    field, rows, probe = case
    before = [list(r) for r in rows]
    rref, pivots = row_reduce(rows, field)
    assert rows == before  # input rows are not mutated
    ref_rref, ref_pivots = _reference_row_reduce(rows, field)
    assert (rref, pivots) == (ref_rref, ref_pivots)
    assert rank(rows, field) == len(ref_rref)
    # equal as field elements and as Python objects of the same type
    assert [[type(x) for x in r] for r in rref] == [
        [type(x) for x in r] for r in ref_rref
    ]
    # the forward pass alone: the same pivots, each row with a unit pivot
    # and zeros to its left
    ech, ech_pivots = echelon(rows, field)
    assert ech_pivots == pivots
    for row, c in zip(ech, ech_pivots):
        assert row[c] == field.one
        assert all(x == field.zero for x in row[:c])
    for vec in rows + [probe]:
        got = reduce_vector(vec, rref, pivots, field)
        assert got == _reference_reduce_vector(vec, rref, pivots, field)
        assert reduce_vector(vec, ech, ech_pivots, field) == got
    assert rows == before


def test_row_reduce_fill_in_over_gf2():
    # over GF(2) the first two rows add up to the third: rank 3, not 4
    F2 = PrimeField(2)
    rows = [[1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]]
    expected = ([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], [0, 1, 2])
    assert _reference_row_reduce(rows, F2) == expected
    assert row_reduce(rows, F2) == expected
    assert rank(rows, F2) == 3


def test_row_reduce_matches_reference_on_larger_sparse_matrices(seed):
    # long chains of fill-in, where the kernel picks other pivot rows than
    # the reference does
    rng = random.Random(seed)
    for field in FIELDS:
        for nrows, ncols in ((40, 30), (25, 45)):
            rows = [
                [field(rng.randint(-3, 3)) if rng.random() < 0.1 else field.zero
                 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            ref_rref, ref_pivots = _reference_row_reduce(rows, field)
            assert row_reduce(rows, field) == (ref_rref, ref_pivots)
            ech, ech_pivots = echelon(rows, field)
            assert ech_pivots == ref_pivots
            for vec in rows:
                assert reduce_vector(vec, ech, ech_pivots, field) == (
                    reduce_vector(vec, ref_rref, ref_pivots, field)
                )
