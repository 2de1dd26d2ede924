"""Castelnuovo-Mumford regularity via minimal Betti tables over Q, plus an
independent linear-algebra oracle.

Regularity of an A-module is always computed after passage to Q (adjoin the
defining relations to the presentation): the syzygy formula
reg(M) = max{j - i : beta_ij != 0} needs a minimal resolution over the
polynomial ring, and the regularities over A and Q agree.

The oracle computes beta_ij = dim Tor_i(M, K)_j from the Koszul complex on
the variables, entirely by row reduction on graded pieces.  It shares no
code path with the Groebner engine, which is the point.  The same pieces
give Hilbert functions.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

from .freemod import ModulePresentation, quotient_by
from .groebner import DEFAULT_DEGREE_CAP
from .linalg import rank, row_reduce
from .resolution import BettiTable, betti_table, resolve_over_Q
from .rings import QuotientRing


def present_over_Q(M: ModulePresentation) -> ModulePresentation:
    """The same graded module, presented over the ambient polynomial ring:
    relations of M plus z_j times each cover basis element."""
    ring = M.ring
    if not isinstance(ring, QuotientRing):
        return M
    return quotient_by(M, ring.relations, ring.base)


def regularity(M: ModulePresentation, degree_cap=DEFAULT_DEGREE_CAP):
    """max{j - i} over the minimal Betti table; NEG_INF for the zero module."""
    MQ = present_over_Q(M)
    R = resolve_over_Q(MQ, minimal=True, degree_cap=degree_cap)
    return betti_table(R).regularity()


# -- graded pieces of a Q-presentation, by pure linear algebra ----------------


def _split(e):
    """(v, e - 1_v) for the first variable x_v dividing x^e."""
    v = next(i for i, x in enumerate(e) if x)
    return v, e[:v] + (e[v] - 1,) + e[v + 1:]


class GradedPieces:
    """Exact graded pieces M_s of a Q-presentation on a degree window, with
    the multiplication maps by the variables, built degree by degree.

    F_s is the sum of the x_v F_{s-1} and the generators of twist s, and the
    kernel of V tensor F_{s-1} -> F_s is the Koszul image, as
    Tor_1(F, K) = 0.  So M_s is the cokernel of one small matrix: its
    columns are V tensor M_{s-1} and the generators of twist s, its rows the
    commutations x_v (x_w b) - x_w (x_v b) for b in M_{s-2} and the
    relations of degree s.  Its reduced echelon form gives the basis (the
    free columns) and x_v: M_{s-1} -> M_s, whose column is a unit vector at
    a free column and minus its pivot row on the free ones otherwise.
    """

    def __init__(self, M: ModulePresentation, lo: int, hi: int):
        ring = M.ring
        if isinstance(ring, QuotientRing):
            raise ValueError("GradedPieces expects a presentation over Q")
        self.M = M
        self.ring = ring
        self.field = field = ring.field
        self.lo = lo
        self.hi = hi
        self._dim, self._mult, self._coords = {}, {}, {}
        d, zero, neg = ring.nvars, field.zero, field.neg
        twists = M.cover.twists
        rels = {}
        for t, col in zip(M.relations.source.twists, M.relations.columns()):
            rels.setdefault(t, []).append(col)
        images = []  # x_v b in M_{s-1}, v outer and b in M_{s-2} inner
        for s in range(min(twists, default=hi + 1), hi + 1):
            n1, n2 = self._dim.get(s - 1, 0), self._dim.get(s - 2, 0)
            gens = [k for k, t in enumerate(twists) if t == s]
            ncols = d * n1 + len(gens)
            minus = [[neg(x) if x != zero else x for x in col] for col in images]
            rows = []
            for v, w in combinations(range(d), 2):
                for b in range(n2):
                    row = [zero] * ncols
                    row[v * n1:(v + 1) * n1] = images[w * n2 + b]
                    row[w * n1:(w + 1) * n1] = minus[v * n2 + b]
                    rows.append(row)
            for col in rels.get(s, ()):
                row = [zero] * ncols
                for k, p in enumerate(col):
                    for e, c in p.terms.items():
                        if twists[k] == s:
                            support = [(d * n1 + gens.index(k), field.one)]
                        else:
                            v, low = _split(e)
                            support = enumerate(self._class(k, low), v * n1)
                        field.sub_row(row, neg(c), support)
                rows.append(row)
            rref, piv = row_reduce(rows, field)
            pivot_row = dict(zip(piv, rref))
            free = [c for c in range(ncols) if c not in pivot_row]
            self._dim[s] = len(free)
            images = [
                [neg(x) if x != zero else x for x in map(pivot_row[c].__getitem__, free)]
                if c in pivot_row else [field.one if f == c else zero for f in free]
                for c in range(ncols)
            ]
            for v in range(d):
                block = images[v * n1:(v + 1) * n1]
                self._mult[v, s - 1] = [[col[r] for col in block] for r in range(len(free))]
            for g, k in enumerate(gens):
                self._coords[k, (0,) * d] = images[d * n1 + g]

    def _class(self, k: int, e):
        """Coordinates of x^e e_k: those of e_k pushed through the x_v,
        memoised in _coords."""
        if (k, e) not in self._coords:
            v, low = _split(e)
            f, vec = self.field, self._class(k, low)
            self._coords[k, e] = [
                reduce(f.add, map(f.mul, row, vec), f.zero)
                for row in self._mult[v, self.M.cover.twists[k] + sum(low)]
            ]
        return self._coords[k, e]

    def dim(self, s: int) -> int:
        return self._dim.get(s, 0) if self.lo <= s <= self.hi else 0

    def mult_matrix(self, var: int, s: int):
        """Matrix of x_var: M_s -> M_{s+1}, columns indexed by the M_s
        basis, rows by the M_{s+1} basis."""
        if self.lo <= s < self.hi and (var, s) in self._mult:
            return self._mult[var, s]
        return [[self.field.zero] * self.dim(s) for _ in range(self.dim(s + 1))]


def hilbert_function(M: ModulePresentation, lo: int, hi: int):
    """[dim_K M_s for lo <= s <= hi], read off one GradedPieces window."""
    pieces = GradedPieces(present_over_Q(M), lo, hi)
    return [pieces.dim(s) for s in range(lo, hi + 1)]


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


def betti_oracle(M: ModulePresentation, deg_cap=None) -> BettiTable:
    """Graded Betti numbers beta_ij for j <= deg_cap by Koszul homology:
    beta_ij = dim H_i(K(x) tensor M)_j, all linear algebra on graded pieces.

    The default window grows with the relation degrees as well as the
    generator degrees, since second syzygies can sit as high as a sum of
    two relation degrees (two generators of an ideal with coprime leading
    forms already show this).  A smaller explicit cap sets the partial flag.
    """
    MQ = present_over_Q(M)
    ring = MQ.ring
    d = ring.nvars
    twists = MQ.cover.twists
    if not twists:
        return BettiTable({}, minimal=True, window=None, partial=False)
    lo = min(twists)
    rel_twists = sorted(MQ.relations.source.twists, reverse=True)
    recommended = max(list(twists) + rel_twists) + d + 2
    if len(rel_twists) >= 2:
        pair = rel_twists[0] + rel_twists[1] - lo
        recommended = max(recommended, pair + d + 2)
    if deg_cap is None:
        deg_cap = recommended
    partial = deg_cap < recommended
    pieces = GradedPieces(MQ, lo - 1, deg_cap + 1)
    # each Koszul differential d_i is built and ranked once per degree j:
    # beta_ij = dim ker (d_i)_j - dim im (d_{i+1})_j
    ker, im = {}, {}
    for i in range(d + 2):
        for j in range(lo, deg_cap + 1):
            rows, ncols = _koszul_matrix(pieces, i, j)
            im[i, j] = rank(rows, pieces.field)
            ker[i, j] = ncols - im[i, j]
    entries = {}
    for i in range(d + 1):
        for j in range(lo, deg_cap + 1):
            b = ker[i, j] - im[i + 1, j]
            if b:
                entries[(i, j)] = b
    return BettiTable(
        entries, minimal=True, window=(lo, deg_cap), partial=partial
    )
