"""Module Groebner bases over graded polynomial rings, with elimination.

All basis computations run over the base polynomial ring Q.  Submodules of a
free module over a quotient A = Q/(z) are handled by adjoining the relation
multiples z_j * e_k of the ambient basis, which turns membership, equality
and kernel questions over A into the same Q-computations.

Vectors are tuples of GradedPoly (one entry per ambient position) and must
be homogeneous in the twisted sense.  The term order is position-over-term:
positions are ranked by ascending twist (ties by index), earlier rank wins
outright, and within a position the ring's monomial order applies.

Kernels and preimages of a map phi come from one elimination basis:
Elimination(phi) builds it once, and its kernel() and preimage(b) methods
share it.  The module-level kernel() and preimage() build a fresh one per
call.  Elimination(phi, modulo=S) solves modulo a submodule S of the target:
its kernel is {x : phi(x) in S} and its preimages hit b up to S.  A preimage
is the package's only way to write an element in terms of generators;
Groebner bases carry no expression data.
"""

from __future__ import annotations

import heapq

from .errors import DegreeCapExceeded
from .freemod import (
    GradedFreeModule,
    GradedMap,
    basis_vector,
    scaled_basis,
    vec_degree,
    vec_is_zero,
    vec_reduce_entries,
    vec_scale,
)
from .rings import (
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_DEGREE_CAP = 40


class ModuleOrder:
    """Position-over-term order on a graded free module.

    seniority[k] = 0 marks the greatest position.  The default ranking is by
    (twist, index) ascending; elimination orders pass an explicit ranking.
    """

    __slots__ = ("ambient", "seniority", "mono_key")

    def __init__(self, ambient: GradedFreeModule, position_priority=None):
        self.ambient = ambient
        if position_priority is None:
            position_priority = sorted(
                range(ambient.rank), key=lambda k: (ambient.twists[k], k)
            )
        self.seniority = {k: i for i, k in enumerate(position_priority)}
        self.mono_key = ambient.base.order_key

    def term_key(self, k, exps):
        return (-self.seniority[k], self.mono_key(exps))

    def leading_term(self, vec):
        """(position, exponents, coefficient) of the greatest term, or None."""
        best = None
        best_key = None
        for k, p in enumerate(vec):
            if p.is_zero():
                continue
            e = p.lm()
            key = self.term_key(k, e)
            if best_key is None or key > best_key:
                best_key = key
                best = (k, e, p.lc())
        return best


class GroebnerBasis:
    """Reduced monic Groebner basis of a submodule of a free Q-module;
    elements are plain vectors sorted by ascending leading term."""

    __slots__ = ("ambient", "order", "elements", "leading_terms")

    def __init__(self, ambient, order, elements, leading_terms):
        self.ambient = ambient
        self.order = order
        self.elements = elements
        self.leading_terms = leading_terms

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _accumulator(vec):
    """A mutable copy of vec: one {exps: coeff} dict per position."""
    return [dict(p.terms) for p in vec]


def _sub_multiple(acc, g, exps, c, field):
    """acc -= c * x^exps * g, in place and only on the support of g."""
    zero = field.zero
    for d, p in zip(acc, g):
        for e, x in p.terms.items():
            m = monomial_mul(e, exps)
            y = field.sub(d.get(m, zero), field.mul(c, x))
            if y == zero:
                del d[m]
            else:
                d[m] = y


def _reduce(acc, elements, lts, order):
    """Full normal form (remainder) of the accumulator acc, which is consumed,
    against (elements, lts).  Positions are cleared most senior first, since
    no divisor of a term at position k touches a more senior position.
    Divisor ties go to the earliest element in list order."""
    ring = order.ambient.base
    divisors = {}
    for g, (gk, ge, gc) in zip(elements, lts):
        divisors.setdefault(gk, []).append((ge, gc, g))
    remainder = [ring.zero] * len(acc)
    for k in sorted(range(len(acc)), key=order.seniority.__getitem__):
        d, rem = acc[k], {}
        while d:
            e = max(d, key=order.mono_key)
            for ge, gc, g in divisors.get(k, ()):
                if monomial_divides(ge, e):
                    q = ring.field.div(d[e], gc)
                    _sub_multiple(acc, g, monomial_div(e, ge), q, ring.field)
                    break
            else:
                rem[e] = d.pop(e)
        if rem:
            remainder[k] = ring.from_terms(rem)
    return tuple(remainder)


def normal_form(vec, gb: GroebnerBasis):
    """Canonical representative of vec modulo the submodule of gb."""
    return _reduce(_accumulator(vec), gb.elements, gb.leading_terms, gb.order)


def buchberger(
    gens,
    ambient: GradedFreeModule,
    order: ModuleOrder = None,
    cap=DEFAULT_DEGREE_CAP,
):
    """Reduced monic Groebner basis of the Q-submodule generated by gens.

    Homogeneous Buchberger: S-pairs are processed in ascending S-degree, so
    for homogeneous input the basis is produced degree by degree and a new
    element of degree above cap aborts with DegreeCapExceeded.  The product
    (coprime leading monomial) criterion is applied only in ambient rank 1;
    it is not valid for module leading terms in general.
    """
    if order is None:
        order = ModuleOrder(ambient)
    field = ambient.base.field

    vecs = []
    lts = []

    def add_element(vec, from_pair):
        if from_pair and cap is not None:
            d = vec_degree(ambient, vec)
            if d > cap:
                raise DegreeCapExceeded(
                    f"Groebner element of degree {d} exceeds cap {cap}", d, cap
                )
        i = len(vecs)
        vecs.append(vec)
        lts.append(order.leading_term(vec))
        for j in range(i):
            if lts[j][0] != lts[i][0]:
                continue
            lcm = monomial_lcm(lts[j][1], lts[i][1])
            if ambient.rank == 1 and monomial_degree(lcm) == monomial_degree(
                lts[j][1]
            ) + monomial_degree(lts[i][1]):
                continue
            sdeg = monomial_degree(lcm) + ambient.twists[lts[j][0]]
            heapq.heappush(pairs, (sdeg, j, i))

    pairs = []
    for g in gens:
        if vec_is_zero(g):
            continue
        r = _reduce(_accumulator(g), vecs, lts, order)
        if not vec_is_zero(r):
            add_element(r, from_pair=False)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        _, ei, ci = lts[i]
        _, ej, cj = lts[j]
        lcm = monomial_lcm(ei, ej)
        a = monomial_div(lcm, ei)
        b = monomial_div(lcm, ej)
        # the S-polynomial x^a g_i / c_i - x^b g_j / c_j, built in place
        s = [{} for _ in range(ambient.rank)]
        _sub_multiple(s, vecs[i], a, field.neg(field.inv(ci)), field)
        _sub_multiple(s, vecs[j], b, field.inv(cj), field)
        r = _reduce(s, vecs, lts, order)
        if not vec_is_zero(r):
            add_element(r, from_pair=True)

    return _reduced_basis(vecs, ambient, order)


def _reduced_basis(vecs, ambient, order):
    field = ambient.base.field
    lts = [order.leading_term(v) for v in vecs]
    # minimal: drop any element whose leading term another one divides
    idx = sorted(range(len(vecs)), key=lambda i: order.term_key(lts[i][0], lts[i][1]))
    kept = []
    for i in idx:
        ki, ei, _ = lts[i]
        if any(
            lts[j][0] == ki and monomial_divides(lts[j][1], ei) for j in kept
        ):
            continue
        kept.append(i)
    vecs = [vecs[i] for i in kept]
    lts = [lts[i] for i in kept]
    # tail-reduce each element against the others, then scale monic
    for i in range(len(vecs)):
        others = vecs[:i] + vecs[i + 1 :]
        other_lts = lts[:i] + lts[i + 1 :]
        r = _reduce(_accumulator(vecs[i]), others, other_lts, order)
        vecs[i] = vec_scale(r, field.inv(lts[i][2]))
        lts[i] = (lts[i][0], lts[i][1], field.one)
    final = sorted(range(len(vecs)), key=lambda i: order.term_key(lts[i][0], lts[i][1]))
    return GroebnerBasis(
        ambient, order, [vecs[i] for i in final], [lts[i] for i in final]
    )


# -- submodules over Q or A ---------------------------------------------------


def relation_vectors(F: GradedFreeModule):
    """The vectors z_j * e_k embedding (z)F (none over Q)."""
    return scaled_basis(F, F.ring.relations)


def submodule_gb(gens, F: GradedFreeModule, cap=DEFAULT_DEGREE_CAP):
    """Groebner basis deciding membership in the submodule of F spanned by
    gens, over F's ring (relation multiples are adjoined over a quotient)."""
    ambient = GradedFreeModule(F.base, F.twists)
    all_gens = list(gens) + relation_vectors(F)
    return buchberger(all_gens, ambient, cap=cap)


def submodule_contains(gb: GroebnerBasis, vec) -> bool:
    return vec_is_zero(normal_form(vec, gb))


def submodule_equal(gens1, gens2, F: GradedFreeModule, cap=DEFAULT_DEGREE_CAP) -> bool:
    """Equality of the two spans inside F, decided by comparing reduced
    bases (unique for the fixed order)."""
    gb1 = submodule_gb(gens1, F, cap=cap)
    gb2 = submodule_gb(gens2, F, cap=cap)
    return gb1.elements == gb2.elements


def minimal_generators(gens, F: GradedFreeModule):
    """Subset of gens that minimally generates their span over F's ring.

    Degree-ascending graded Nakayama: a generator of degree t is kept iff it
    is independent of the positive-degree multiples of all generators plus
    the same-degree generators already kept.  Output sorted by descending
    degree (stable within a degree).
    """
    from .freemod import piece_basis, span_matrix, vector_coords
    from .linalg import reduce_vector, row_reduce

    field = F.base.field
    gens = [vec_reduce_entries(F, g) for g in gens]
    gens = [g for g in gens if not vec_is_zero(g)]
    if not gens:
        return []
    degs = [vec_degree(F, g) for g in gens]
    selected = []
    for t in sorted(set(degs)):
        basis = piece_basis(F, t)
        lower = [g for g, d in zip(gens, degs) if d < t]
        # every multiplier has positive degree here, so rows spans exactly
        # the degree-t piece of (irrelevant ideal) * span(gens)
        rows, piv = row_reduce(span_matrix(F, lower, t, basis), field)
        for g, d in zip(gens, degs):
            if d != t:
                continue
            v = reduce_vector(vector_coords(F, g, t, basis), rows, piv, field)
            p = next((c for c, x in enumerate(v) if x != field.zero), None)
            if p is None:
                continue
            selected.append((t, g))
            # the residual is zero on every earlier pivot, so reducing
            # against the rows in order stays exact with it appended
            inv = field.inv(v[p])
            rows.append([field.mul(inv, x) for x in v])
            piv.append(p)
    selected.sort(key=lambda td: -td[0])
    return [g for _, g in selected]


# -- kernels and preimages via elimination ------------------------------------


class Elimination:
    """Elimination basis of one map phi: F -> G modulo the submodule S of G
    spanned by the vectors in modulo (S = 0 by default), built once and
    shared by its kernel and any number of preimage queries.

    The basis is the GB of {(phi(e_m), e_m)} plus (s, 0) for s in modulo
    and the relation multiples of G, in G + F with the target block senior;
    g_rank = rank G marks where the source block starts.
    """

    __slots__ = ("source", "basis", "g_rank")

    def __init__(self, phi: GradedMap, cap=DEFAULT_DEGREE_CAP, modulo=()):
        G, Fm = phi.target, phi.source
        Q = Fm.base
        ambient = GradedFreeModule(Q, G.twists + Fm.twists)
        g_rank = G.rank
        priority = sorted(range(g_rank), key=lambda k: (G.twists[k], k)) + [
            g_rank + m
            for m in sorted(range(Fm.rank), key=lambda m: (Fm.twists[m], m))
        ]
        order = ModuleOrder(ambient, priority)
        gens = [phi.column(m) + basis_vector(Fm, m) for m in range(Fm.rank)]
        zpad = tuple(Q.zero for _ in range(Fm.rank))
        gens += [tuple(v) + zpad for v in list(modulo) + relation_vectors(G)]
        self.source = Fm
        self.basis = buchberger(gens, ambient, order=order, cap=cap)
        self.g_rank = g_rank

    def kernel(self):
        """Generators of {x : phi(x) in S}; see kernel()."""
        g_rank = self.g_rank
        out = []
        for v in self.basis.elements:
            if any(not p.is_zero() for p in v[:g_rank]):
                continue
            w = vec_reduce_entries(self.source, v[g_rank:])
            if not vec_is_zero(w):
                out.append(w)
        return out

    def preimage(self, b):
        """Some x with phi(x) = b mod S; see preimage()."""
        Fm = self.source
        padded = tuple(b) + tuple(Fm.base.zero for _ in range(Fm.rank))
        r = normal_form(padded, self.basis)
        if any(not p.is_zero() for p in r[: self.g_rank]):
            return None
        return tuple(-p for p in r[self.g_rank :])


def kernel(phi: GradedMap, cap=DEFAULT_DEGREE_CAP, modulo=()):
    """Generators of ker(phi) over phi's ring, as vectors in phi.source;
    with modulo, of {x : phi(x) in span(modulo)}.

    Over a quotient ring the kernel of the induced map on A-modules is
    returned (entries in canonical form, zero vectors dropped).
    """
    return Elimination(phi, cap, modulo).kernel()


def preimage(phi: GradedMap, b, cap=DEFAULT_DEGREE_CAP):
    """Some x with phi(x) = b (over a quotient: phi(x) = b mod (z)); None if
    b is not in the image.  Build one Elimination to answer many b."""
    return Elimination(phi, cap).preimage(b)


def presentation_is_zero(M, cap=DEFAULT_DEGREE_CAP) -> bool:
    """True iff coker(M.relations) is the zero module."""
    F = M.cover
    if F.rank == 0:
        return True
    gb = submodule_gb(M.relations.columns(), F, cap=cap)
    return all(
        submodule_contains(gb, basis_vector(F, k)) for k in range(F.rank)
    )
