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
call.
"""

from __future__ import annotations

import heapq

from .errors import DegreeCapExceeded
from .freemod import (
    GradedFreeModule,
    GradedMap,
    basis_vector,
    vec_degree,
    vec_is_zero,
    vec_mul_term,
    vec_reduce_entries,
    vec_scale,
    vec_sub,
)
from .rings import (
    QuotientRing,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
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
    """Reduced monic Groebner basis of a submodule of a free Q-module.

    elements are plain vectors sorted by ascending leading term; reps (when
    tracked) express each element in terms of the original input generators.
    """

    __slots__ = ("ambient", "order", "elements", "leading_terms", "reps", "ngens")

    def __init__(self, ambient, order, elements, leading_terms, reps, ngens):
        self.ambient = ambient
        self.order = order
        self.elements = elements
        self.leading_terms = leading_terms
        self.reps = reps
        self.ngens = ngens

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _reduce(vec, elements, lts, order, track=False, ring=None):
    """Full normal form of vec against (elements, lts).

    Returns (remainder, quotients) with vec = sum q_t * elements[t] + r.
    quotients is None unless track is set.  Divisor ties go to the earliest
    element in list order.
    """
    if ring is None:
        ring = order.ambient.base
    quotients = [ring.zero] * len(elements) if track else None
    remainder_terms = [dict() for _ in range(len(vec))]
    cur = vec
    while not vec_is_zero(cur):
        k, e, c = order.leading_term(cur)
        for t, (gk, ge, gc) in enumerate(lts):
            if gk == k and monomial_divides(ge, e):
                q_exps = monomial_div(e, ge)
                q_coeff = ring.field.div(c, gc)
                cur = vec_sub(cur, vec_mul_term(elements[t], q_exps, q_coeff))
                if track:
                    quotients[t] = quotients[t] + ring.monomial(q_exps, q_coeff)
                break
        else:
            remainder_terms[k][e] = c
            cur = vec_sub(cur, _term_vector(ring, len(cur), k, e, c))
    remainder = tuple(
        ring.from_terms(t) if t else ring.zero for t in remainder_terms
    )
    return remainder, quotients


def _term_vector(ring, length, k, e, c):
    z = ring.zero
    return tuple(ring.monomial(e, c) if i == k else z for i in range(length))


def normal_form(vec, gb: GroebnerBasis):
    """Canonical representative of vec modulo the submodule of gb."""
    r, _ = _reduce(vec, gb.elements, gb.leading_terms, gb.order)
    return r


def divide(vec, gb: GroebnerBasis):
    """(remainder, quotients) with vec = sum q_t gb.elements[t] + remainder."""
    return _reduce(vec, gb.elements, gb.leading_terms, gb.order, track=True)


def buchberger(
    gens,
    ambient: GradedFreeModule,
    order: ModuleOrder = None,
    cap=DEFAULT_DEGREE_CAP,
    tracked=False,
):
    """Reduced monic Groebner basis of the Q-submodule generated by gens.

    Homogeneous Buchberger: S-pairs are processed in ascending S-degree, so
    for homogeneous input the basis is produced degree by degree and a new
    element of degree above cap aborts with DegreeCapExceeded.  The product
    (coprime leading monomial) criterion is applied only in ambient rank 1;
    it is not valid for module leading terms in general.
    """
    ring = ambient.base
    if order is None:
        order = ModuleOrder(ambient)
    field = ring.field

    vecs = []
    lts = []
    degs = []
    reps = [] if tracked else None

    def add_element(vec, rep, from_pair):
        d = vec_degree(ambient, vec)
        if from_pair and cap is not None and d > cap:
            raise DegreeCapExceeded(
                f"Groebner element of degree {d} exceeds cap {cap}", d, cap
            )
        i = len(vecs)
        vecs.append(vec)
        lts.append(order.leading_term(vec))
        degs.append(d)
        if tracked:
            reps.append(rep)
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
    ngens = len(gens)
    for m, g in enumerate(gens):
        if vec_is_zero(g):
            continue
        rep = None
        if tracked:
            one = ring.one
            rep = tuple(one if t == m else ring.zero for t in range(ngens))
        r, q = _reduce(g, vecs, lts, order, track=tracked, ring=ring)
        if vec_is_zero(r):
            continue
        if tracked:
            rep = _rep_after_reduction(rep, q, reps, ring)
        add_element(r, rep, from_pair=False)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        ki, ei, ci = lts[i]
        kj, ej, cj = lts[j]
        lcm = monomial_lcm(ei, ej)
        a = monomial_div(lcm, ei)
        b = monomial_div(lcm, ej)
        s = vec_sub(
            vec_mul_term(vecs[i], a, field.inv(ci)),
            vec_mul_term(vecs[j], b, field.inv(cj)),
        )
        rep = None
        if tracked:
            rep = tuple(
                ri.mul_term(a, field.inv(ci)) - rj.mul_term(b, field.inv(cj))
                for ri, rj in zip(reps[i], reps[j])
            )
        r, q = _reduce(s, vecs, lts, order, track=tracked, ring=ring)
        if vec_is_zero(r):
            continue
        if tracked:
            rep = _rep_after_reduction(rep, q, reps, ring)
        add_element(r, rep, from_pair=True)

    return _reduced_basis(vecs, reps, ambient, order, ngens, tracked)


def _rep_after_reduction(rep, quotients, reps, ring):
    out = list(rep)
    for t, q in enumerate(quotients):
        if q.is_zero():
            continue
        for m in range(len(out)):
            if not reps[t][m].is_zero():
                out[m] = out[m] - q * reps[t][m]
    return tuple(out)


def _reduced_basis(vecs, reps, ambient, order, ngens, tracked):
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
    if tracked:
        reps = [reps[i] for i in kept]
    # tail-reduce each element against the others, then scale monic
    for i in range(len(vecs)):
        others = vecs[:i] + vecs[i + 1 :]
        other_lts = lts[:i] + lts[i + 1 :]
        r, q = _reduce(vecs[i], others, other_lts, order, track=tracked)
        if tracked and q is not None:
            other_reps = reps[:i] + reps[i + 1 :]
            reps[i] = _rep_after_reduction(reps[i], q, other_reps, ambient.base)
        c = field.inv(lts[i][2])
        vecs[i] = vec_scale(r, c)
        lts[i] = (lts[i][0], lts[i][1], field.one)
        if tracked:
            reps[i] = tuple(p.scale(c) for p in reps[i])
    final = sorted(range(len(vecs)), key=lambda i: order.term_key(lts[i][0], lts[i][1]))
    return GroebnerBasis(
        ambient,
        order,
        [vecs[i] for i in final],
        [lts[i] for i in final],
        [reps[i] for i in final] if tracked else None,
        ngens,
    )


# -- submodules over Q or A ---------------------------------------------------


def relation_vectors(F: GradedFreeModule):
    """The vectors z_j * e_k embedding (z)F when F lives over a quotient."""
    out = []
    if isinstance(F.ring, QuotientRing):
        for z in F.ring.relations:
            for k in range(F.rank):
                out.append(
                    tuple(z if i == k else F.base.zero for i in range(F.rank))
                )
    return out


def submodule_gb(gens, F: GradedFreeModule, cap=DEFAULT_DEGREE_CAP, tracked=False):
    """Groebner basis deciding membership in the submodule of F spanned by
    gens, over F's ring (relation multiples are adjoined over a quotient)."""
    ambient = GradedFreeModule(F.base, F.twists)
    all_gens = list(gens) + relation_vectors(F)
    return buchberger(all_gens, ambient, cap=cap, tracked=tracked)


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
    """Elimination basis of one map phi: F -> G, built once and shared by
    its kernel and any number of preimage queries.

    The basis is the GB of {(phi(e_m), e_m)} (+ relation multiples on the
    target block) in G + F with the target block senior; g_rank = rank G
    marks where the source block starts.
    """

    __slots__ = ("source", "basis", "g_rank")

    def __init__(self, phi: GradedMap, cap=DEFAULT_DEGREE_CAP):
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
        gens += [v + zpad for v in relation_vectors(G)]
        self.source = Fm
        self.basis = buchberger(gens, ambient, order=order, cap=cap)
        self.g_rank = g_rank

    def kernel(self):
        """Generators of ker(phi); see kernel()."""
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
        """Some x with phi(x) = b; see preimage()."""
        Fm = self.source
        padded = tuple(b) + tuple(Fm.base.zero for _ in range(Fm.rank))
        r = normal_form(padded, self.basis)
        if any(not p.is_zero() for p in r[: self.g_rank]):
            return None
        return tuple(-p for p in r[self.g_rank :])


def kernel(phi: GradedMap, cap=DEFAULT_DEGREE_CAP):
    """Generators of ker(phi) over phi's ring, as vectors in phi.source.

    Over a quotient ring the kernel of the induced map on A-modules is
    returned (entries in canonical form, zero vectors dropped).
    """
    return Elimination(phi, cap).kernel()


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
