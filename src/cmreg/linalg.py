"""Exact dense linear algebra over a coefficient field.

Matrices are lists of row lists of field elements.  Everything here is
plain Gaussian elimination; it is the independent engine behind graded-piece
dimension counts, the Betti-number oracle, and exactness checks, so it
deliberately shares no code with the Groebner machinery.
"""

from __future__ import annotations


def row_reduce(rows, field):
    """Return (rref_rows, pivot_columns).  Input rows are not mutated."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != field.zero:
                pr = i
                break
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


def rank(rows, field):
    return len(row_reduce(rows, field)[0])


def reduce_vector(vec, rref_rows, pivots, field):
    """Residual of vec after eliminating against a reduced echelon form;
    the result is supported on non-pivot columns only.  It is enough that
    each row has 1 at its pivot and 0 at the pivots of the rows before it."""
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        if v[p] != field.zero:
            f = v[p]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return v


def in_row_span(vec, rref_rows, pivots, field):
    """Membership of vec in the row space given a reduced row echelon form."""
    v = reduce_vector(vec, rref_rows, pivots, field)
    return all(x == field.zero for x in v)


def nullspace(rows, ncols, field):
    """Basis of the right kernel {x : rows @ x = 0}, as a list of vectors."""
    rref, pivots = row_reduce(rows, field)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, p in zip(rref, pivots):
            v[p] = field.neg(row[fc])
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """One solution x of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None if any(b != field.zero for b in rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = row_reduce(aug, field)
    for row, p in zip(rref, pivots):
        if p == ncols:
            return None
    x = [field.zero] * ncols
    for row, p in zip(rref, pivots):
        x[p] = row[ncols]
    return x
