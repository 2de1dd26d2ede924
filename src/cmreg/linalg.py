"""Exact dense linear algebra over a coefficient field.

Matrices are lists of row lists of field elements.  Elimination updates a
row only on the support of the pivot row, through the field's fused
sub_row, so zero cells cost no arithmetic; it is the independent engine
behind graded-piece dimension counts, the Betti oracle and exactness checks,
so it shares no code with the Groebner machinery.
"""

from __future__ import annotations


def _eliminate(targets, prow, c, field):
    """Clear column c of each target row, touching only prow's support."""
    zero = field.zero
    support = [(j, y) for j, y in enumerate(prow) if y != zero]
    for row in targets:
        f = row[c]
        if f != zero:
            field.sub_row(row, f, support)


def echelon(rows, field):
    """Forward elimination on a copy of rows: (echelon_rows, pivot_columns),
    one row per pivot, each with 1 at its pivot and zeros to its left.
    Input rows are not mutated."""
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
    return m[:r], pivots


def row_reduce(rows, field):
    """Return (rref_rows, pivot_columns): echelon plus back substitution.
    Input rows are not mutated."""
    m, pivots = echelon(rows, field)
    # last pivot first, so every row subtracted is final
    for k in range(len(pivots) - 1, 0, -1):
        _eliminate(m[:k], m[k], pivots[k], field)
    return m, pivots


def rank(rows, field):
    """Row rank; the forward pass alone decides it."""
    return len(echelon(rows, field)[1])


def reduce_vector(vec, rows, pivots, field):
    """Residual of vec after eliminating against an echelon or reduced
    echelon form; the result is supported on non-pivot columns only and is
    the same for either form.  It is enough that each row has 1 at its pivot
    and 0 at the pivots of the rows before it."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        if v[p] != field.zero:
            _eliminate((v,), row, p, field)
    return v


def in_row_span(vec, rows, pivots, field):
    """Membership of vec in the row space of an echelon form."""
    v = reduce_vector(vec, rows, pivots, field)
    return all(x == field.zero for x in v)
