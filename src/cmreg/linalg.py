"""Exact dense linear algebra over a coefficient field.

Matrices are lists of row lists of field elements.  Elimination updates a
row only on the support of the pivot row, so zero cells cost no arithmetic;
it is the independent engine behind graded-piece dimension counts, the Betti
oracle and exactness checks, so it shares no code with the Groebner machinery.
"""

from __future__ import annotations


def _eliminate(targets, prow, c, field):
    """Clear column c of each target row, touching only prow's support."""
    zero, mul, sub = field.zero, field.mul, field.sub
    support = [(j, y) for j, y in enumerate(prow) if y != zero]
    for row in targets:
        f = row[c]
        if f != zero:
            for j, y in support:
                row[j] = sub(row[j], mul(f, y))


def _forward(rows, field):
    """Forward elimination on a copy of rows: (rows, pivot_columns), where
    the first len(pivot_columns) rows are an echelon form with unit pivots
    and the rest are zero."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    zero, mul = field.zero, field.mul
    pivots = []
    r = 0
    for c in range(len(m[0])):
        candidates = [i for i in range(r, len(m)) if m[i][c] != zero]
        if not candidates:
            continue
        # the answer is unique, so pivot on the sparsest row: least fill-in
        pr = max(candidates, key=lambda i: m[i].count(zero))
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = prow = [x if x == zero else mul(inv, x) for x in m[r]]
        _eliminate(m[r + 1:], prow, c, field)
        pivots.append(c)
        r += 1
    return m, pivots


def row_reduce(rows, field):
    """Return (rref_rows, pivot_columns).  Input rows are not mutated."""
    m, pivots = _forward(rows, field)
    r = len(pivots)
    # back substitution, last pivot first, so every row subtracted is final
    for k in range(r - 1, 0, -1):
        _eliminate(m[:k], m[k], pivots[k], field)
    return m[:r], pivots


def rank(rows, field):
    """Row rank; the forward pass alone decides it."""
    return len(_forward(rows, field)[1])


def reduce_vector(vec, rref_rows, pivots, field):
    """Residual of vec after eliminating against a reduced echelon form;
    the result is supported on non-pivot columns only.  It is enough that
    each row has 1 at its pivot and 0 at the pivots of the rows before it."""
    zero, mul, sub = field.zero, field.mul, field.sub
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        f = v[p]
        if f != zero:
            for j, y in enumerate(row):
                if y != zero:
                    v[j] = sub(v[j], mul(f, y))
    return v


def in_row_span(vec, rref_rows, pivots, field):
    """Membership of vec in the row space given a reduced row echelon form."""
    v = reduce_vector(vec, rref_rows, pivots, field)
    return all(x == field.zero for x in v)
