"""The Betti oracle as it was before its graded pieces were built degree by
degree: each piece M_s was the quotient of the ambient monomial basis of
F_s by the degree-s span of the relations, echelonised once, and each
multiplication map reduced the image monomials against that form.  Kept as
the reference that test_betti_oracle.py compares `cmreg.regularity`
against."""

from __future__ import annotations

from itertools import combinations

from reference_pieces import piece_basis, span_matrix
from cmreg.freemod import ModulePresentation
from cmreg.linalg import echelon, rank, reduce_vector
from cmreg.regularity import present_over_Q
from cmreg.resolution import BettiTable
from cmreg.rings import QuotientRing, monomial_mul


class GradedPieces:
    """Exact graded pieces M_s of a Q-presentation on a degree window.

    Each piece gets a coordinate basis (the ambient monomial basis columns
    away from the relation-rowspace pivots) plus multiplication maps by the
    variables, all through one forward echelon form per piece: reducing
    against it leaves the same residual as against the reduced form.
    """

    def __init__(self, M: ModulePresentation, lo: int, hi: int):
        ring = M.ring
        if isinstance(ring, QuotientRing):
            raise ValueError("GradedPieces expects a presentation over Q")
        self.M = M
        self.ring = ring
        self.field = ring.field
        self.lo = lo
        self.hi = hi
        self._amb = {}
        self._amb_index = {}
        self._echelon = {}
        self._free_cols = {}
        self._mult = {}
        F = M.cover
        cols = M.relations.columns()
        for s in range(lo, hi + 1):
            basis = piece_basis(F, s)
            rows = span_matrix(F, cols, s, basis)
            ech, piv = echelon(rows, self.field)
            pivset = set(piv)
            self._amb[s] = basis
            self._amb_index[s] = {be: i for i, be in enumerate(basis)}
            self._echelon[s] = (ech, piv)
            self._free_cols[s] = [c for c in range(len(basis)) if c not in pivset]

    def dim(self, s: int) -> int:
        if s < self.lo or s > self.hi:
            return 0
        return len(self._free_cols[s])

    def mult_matrix(self, var: int, s: int):
        """Matrix of x_var: M_s -> M_{s+1}, columns indexed by the M_s
        basis, rows by the M_{s+1} basis."""
        key = (var, s)
        if key in self._mult:
            return self._mult[key]
        n_src = self.dim(s)
        n_tgt = self.dim(s + 1)
        step = tuple(1 if i == var else 0 for i in range(self.ring.nvars))
        cols = []
        for c in self._free_cols.get(s, []):
            k, e = self._amb[s][c]
            amb = [self.field.zero] * len(self._amb[s + 1])
            amb[self._amb_index[s + 1][(k, monomial_mul(e, step))]] = self.field.one
            ech, piv = self._echelon[s + 1]
            red = reduce_vector(amb, ech, piv, self.field)
            cols.append([red[i] for i in self._free_cols[s + 1]])
        out = [[cols[c][r] for c in range(n_src)] for r in range(n_tgt)]
        self._mult[key] = out
        return out


def _koszul_matrix(pieces: GradedPieces, i: int, j: int):
    """Matrix of the Koszul differential K_i -> K_{i-1} on internal degree j,
    with (K_i)_j = sum over i-subsets S of M_{j-i}, and its column count.
    For i = 0 the target is zero and the matrix has no rows."""
    d = pieces.ring.nvars
    srcs = list(combinations(range(d), i))
    sdim = pieces.dim(j - i)
    ncols = sdim * len(srcs)
    if i == 0:
        return [], ncols
    tgt_index = {T: t for t, T in enumerate(combinations(range(d), i - 1))}
    tdim = pieces.dim(j - i + 1)
    rows = [[pieces.field.zero] * ncols for _ in range(tdim * len(tgt_index))]
    for si, S in enumerate(srcs):
        # dropping the r-th variable of S gives a different target for each
        # r, so every block is written once, with sign (-1)^r
        for r, var in enumerate(S):
            ti = tgt_index[S[:r] + S[r + 1:]]
            for a, mrow in enumerate(pieces.mult_matrix(var, j - i)):
                rows[ti * tdim + a][si * sdim:(si + 1) * sdim] = (
                    [pieces.field.neg(x) for x in mrow] if r % 2 else mrow
                )
    return rows, ncols


def betti_oracle(M: ModulePresentation) -> BettiTable:
    """Graded Betti numbers beta_ij for j <= top by Koszul homology:
    beta_ij = dim H_i(K(x) tensor M)_j, all linear algebra on graded pieces.

    The window's top grows with the relation degrees as well as the
    generator degrees, since second syzygies can sit as high as a sum of
    two relation degrees (two generators of an ideal with coprime leading
    forms already show this).
    """
    MQ = present_over_Q(M)
    ring = MQ.ring
    d = ring.nvars
    twists = MQ.cover.twists
    if not twists:
        return BettiTable({}, minimal=True, window=None, partial=False)
    lo = min(twists)
    rel_twists = sorted(MQ.relations.source.twists, reverse=True)
    top = max(list(twists) + rel_twists) + d + 2
    if len(rel_twists) >= 2:
        pair = rel_twists[0] + rel_twists[1] - lo
        top = max(top, pair + d + 2)
    pieces = GradedPieces(MQ, lo - 1, top + 1)
    # each Koszul differential d_i is built and ranked once per degree j:
    # beta_ij = dim ker (d_i)_j - dim im (d_{i+1})_j
    ker, im = {}, {}
    for i in range(d + 2):
        for j in range(lo, top + 1):
            rows, ncols = _koszul_matrix(pieces, i, j)
            im[i, j] = rank(rows, pieces.field)
            ker[i, j] = ncols - im[i, j]
    entries = {}
    for i in range(d + 1):
        for j in range(lo, top + 1):
            b = ker[i, j] - im[i + 1, j]
            if b:
                entries[(i, j)] = b
    return BettiTable(
        entries, minimal=True, window=(lo, top), partial=False
    )
