"""Castelnuovo-Mumford regularity via minimal Betti tables over Q, plus an
independent linear-algebra oracle.

Regularity of an A-module is always computed after passage to Q (adjoin the
defining relations to the presentation): the syzygy formula
reg(M) = max{j - i : beta_ij != 0} needs a minimal resolution over the
polynomial ring, and the regularities over A and Q agree.

The oracle computes beta_ij = dim Tor_i(M, K)_j from the Koszul complex on
the variables, entirely by row reduction on graded pieces, on a degree
window that a Bayer-Stillman certificate (linear forms checked on the same
pieces) proves complete.  It shares no code path with the Groebner engine,
which is the point.  The same pieces give Hilbert functions.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from math import comb

from .freemod import ModulePresentation, quotient_by
from .groebner import DEFAULT_DEGREE_CAP
from .linalg import rank, row_reduce
from .resolution import BettiTable, betti_table, resolve_over_Q
from .rings import QuotientRing

#: seed of the linear forms betti_oracle draws; any seed gives a sound
#: certificate, and the same seed the same window
_FORM_SEED = 0


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
    """Exact graded pieces M_s of a Q-presentation up to a top degree, with
    the multiplication maps by the variables, built degree by degree.

    F_s is the sum of the x_v F_{s-1} and the generators of twist s, and the
    kernel of V tensor F_{s-1} -> F_s is the Koszul image, as
    Tor_1(F, K) = 0.  So M_s is the cokernel of one small matrix: its
    columns are V tensor M_{s-1} and the generators of twist s, its rows the
    commutations x_v (x_w b) - x_w (x_v b) for b in M_{s-2} and the
    relations of degree s.  Its reduced echelon form gives the basis (the
    free columns) and x_v: M_{s-1} -> M_s, whose column is a unit vector at
    a free column and minus its pivot row on the free ones otherwise.

    Pieces start at the lowest cover twist and reach hi; extend(hi) builds
    only the degrees not built yet, so a caller that learns its top degree
    late pays for each degree once.  A degree not built reads as 0.
    """

    def __init__(self, M: ModulePresentation, hi: int):
        ring = M.ring
        if isinstance(ring, QuotientRing):
            raise ValueError("GradedPieces expects a presentation over Q")
        self.M = M
        self.ring = ring
        self.field = ring.field
        self._dim, self._mult, self._coords = {}, {}, {}
        self._rels = {}
        for t, col in zip(M.relations.source.twists, M.relations.columns()):
            self._rels.setdefault(t, []).append(col)
        self._next = min(M.cover.twists, default=hi + 1)  # first degree not built
        self._images = []  # x_v b in M_{s-1}, v outer and b in M_{s-2} inner
        self.extend(hi)

    def extend(self, hi: int):
        """Build the pieces up to degree hi."""
        field, d = self.field, self.ring.nvars
        zero, neg = field.zero, field.neg
        twists = self.M.cover.twists
        images = self._images
        for s in range(self._next, hi + 1):
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
            for col in self._rels.get(s, ()):
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
        self._images = images
        self._next = max(self._next, hi + 1)

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
        return self._dim.get(s, 0)

    def mult_matrix(self, var: int, s: int):
        """Matrix of x_var: M_s -> M_{s+1}, columns indexed by the M_s
        basis, rows by the M_{s+1} basis."""
        if (var, s) in self._mult:
            return self._mult[var, s]
        return [[self.field.zero] * self.dim(s) for _ in range(self.dim(s + 1))]


def hilbert_function(M: ModulePresentation, lo: int, hi: int):
    """[dim_K M_s for lo <= s <= hi], read off one GradedPieces."""
    pieces = GradedPieces(present_over_Q(M), hi)
    return [pieces.dim(s) for s in range(lo, hi + 1)]


def _koszul_matrix(pieces: GradedPieces, i: int, j: int):
    """Matrix of the Koszul differential K_i -> K_{i-1} on internal degree j,
    i >= 1, with (K_i)_j = sum over i-subsets S of M_{j-i}."""
    d = pieces.ring.nvars
    srcs = list(combinations(range(d), i))
    sdim = pieces.dim(j - i)
    ncols = sdim * len(srcs)
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
    return rows


def _times(pieces: GradedPieces, h, s: int):
    """Matrix of multiplication by the linear form h (its coefficient list)
    from M_s to M_{s+1}, laid out as mult_matrix."""
    f = pieces.field
    out = [[f.zero] * pieces.dim(s) for _ in range(pieces.dim(s + 1))]
    for v, c in enumerate(h):
        for row, mrow in zip(out, pieces.mult_matrix(v, s)):
            f.sub_row(row, f.neg(c), enumerate(mrow))
    return out


def _forms(field, d: int, rng):
    """d linearly independent linear forms, as coefficient lists drawn from
    rng; dependent draws are redrawn, which matters over small fields.  The
    coefficients are integers below 32003: all of GF(p) for p <= 32003, and
    small ones over QQ."""
    while True:
        forms = [[field(rng.randrange(32003)) for _ in range(d)] for _ in range(d)]
        if rank(forms, field) == d:
            return forms


def _certifies(pieces: GradedPieces, m: int, forms) -> bool:
    """Whether the linear forms h_1..h_d prove reg M <= m, for M generated
    in degrees <= m with relations in degrees <= m + 1 (pieces built up to
    m + 2).  With N_i = M/(h_1..h_i)M the test is Bayer and Stillman's
    criterion (b): each h_i is injective from (N_{i-1})_{m+1} to
    (N_{i-1})_{m+2}, and (N_d)_{m+1} = 0.  With U_s = sum_{k<i} h_k M_{s-1},
    h_i is injective there iff
    dim M_{m+1} - rank [h_i M_{m+1}; U_{m+2}] + rank U_{m+2} = rank U_{m+1}.

    Proof that a pass gives reg M <= m.  Write Tor_i(N) for Tor_i(N, K).
    Each N_i is presented by the generators of M and the relations of M
    plus the h_k e, so Tor_0(N_i)_j = 0 for j > m and Tor_1(N_i)_j = 0 for
    j > m + 1.  A module P generated in degrees <= m with P_{m+1} = 0
    vanishes above m, and then Tor_i(P)_j, a subquotient of
    wedge^i V tensor P_{j-i} in the Koszul complex, is 0 for j > m + i; so
    reg N_d <= m.  Going down, let N = N_{i-1}, h = h_i, N' = N/hN with
    reg N' <= m, and A = (0 :_N h).  The exact sequence
    0 -> A(-1) -> N(-1) -> N -> N' -> 0 (the middle map is h) splits into
    0 -> A(-1) -> N(-1) -> hN -> 0 and 0 -> hN -> N -> N' -> 0.
    (1) For j >= m + 3, Tor_2(N')_j = 0 = Tor_1(N)_j, so Tor_1(hN)_j = 0 and
    (A tensor K)_{j-1} embeds in (N tensor K)_{j-1} = 0: A is generated in
    degrees <= m + 1, and A_{m+1} = 0 by injectivity, so A vanishes above m
    and Tor_{i-1}(A)_{j-1} = 0 for j > m + i.  (2) For j > m + i,
    Tor_i(N')_j = 0 and Tor_{i-1}(A)_{j-1} = 0, so the long exact sequences
    make Tor_i(N)_{j-1} -> Tor_i(hN)_j -> Tor_i(N)_j both onto.  Their
    composite is multiplication by h on Tor_i(N), which (x) kills, so
    Tor_i(N)_j = 0: reg N <= m.  Nothing here needs N cyclic; the relation
    bound is used in (1), and without it the test passes below reg M (on
    S/(x1^3 + x2^3) at m = 0, where reg = 2).  For S/I this is Bayer and
    Stillman, Invent. Math. 87 (1987), Thm 1.10, (b) => (a) at m + 1; the
    regularity facts are in Eisenbud, The Geometry of Syzygies, ch. 4.
    """
    field, top = pieces.field, pieces.dim(m + 1)
    # U_{m+1} and U_{m+2} as the column spans of [h_1 | h_2 | ...]
    low = [[] for _ in range(top)]
    high = [[] for _ in range(pieces.dim(m + 2))]
    rank_low = rank_high = 0
    for h in forms:
        for row, new in zip(high, _times(pieces, h, m + 1)):
            row += new
        stacked = rank(high, field)
        if top - stacked + rank_high != rank_low:
            return False
        for row, new in zip(low, _times(pieces, h, m)):
            row += new
        rank_low, rank_high = rank(low, field), stacked
    return rank_low == top


def betti_oracle(M: ModulePresentation) -> BettiTable:
    """Graded Betti numbers beta_ij by Koszul homology:
    beta_ij = dim H_i(K(x) tensor M)_j, all linear algebra on graded pieces,
    on a window (lo, hi) that a certificate proves complete.

    The Q-presentation has generators in degrees <= m0 and relations in
    degrees <= m0 + 1, with m0 the larger of its top cover twist and its top
    relation twist - 1.  From m = m0 up, seeded linear forms are tried
    (_certifies) until they prove reg M <= m; then beta_ij = 0 for
    j - i > m, the ranks run on the strip lo <= j - i <= m only, and the
    window is (lo, m + d), not partial.  Generic forms pass at every
    m >= max(m0, reg M) (Bayer-Stillman (c)), so over a large field the
    window top is usually reg M + d; over a small one the forms may keep
    failing.  The search stops where m + d would pass the cap, a resource
    bound that grows with the twists and the sum of the two top relation
    twists.  Without a certificate the table is every beta_ij with
    j <= cap, the window (lo, cap) and partial True.
    """
    MQ = present_over_Q(M)
    d = MQ.ring.nvars
    twists = MQ.cover.twists
    if not twists:
        return BettiTable({}, minimal=True, window=None, partial=False)
    lo = min(twists)
    rel_twists = sorted(MQ.relations.source.twists, reverse=True)
    cap = max(list(twists) + rel_twists) + d + 2
    if len(rel_twists) >= 2:
        cap = max(cap, rel_twists[0] + rel_twists[1] - lo + d + 2)
    m0 = max(list(twists) + [t - 1 for t in rel_twists])
    pieces = GradedPieces(MQ, lo - 1)  # the search extends it
    field, rng = pieces.field, random.Random(_FORM_SEED)
    for m in range(m0, cap - d + 1):
        pieces.extend(m + 2)
        if _certifies(pieces, m, _forms(field, d, rng)):
            hi, top, partial = m + d, m, False
            break
    else:
        pieces.extend(cap)
        hi, top, partial = cap, cap, True
    # beta_ij = dim (K_i)_j - rank (d_i)_j - rank (d_{i+1})_j with s = j - i,
    # and (K_i)_j = 0 for s < lo: each d_i is ranked once per degree j, and
    # d_{i+1} at j was ranked at s - 1
    im, entries = {}, {}
    for s in range(lo, top + 1):
        for i in range(1, min(d, hi - s) + 1):
            im[i, s + i] = rank(_koszul_matrix(pieces, i, s + i), field)
        for i in range(min(d, hi - s) + 1):
            j = s + i
            entries[i, j] = comb(d, i) * pieces.dim(s) - im.get((i, j), 0) - im.get((i + 1, j), 0)
    return BettiTable(entries, minimal=True, window=(lo, hi), partial=partial)
