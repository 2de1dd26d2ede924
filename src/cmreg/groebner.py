"""Module Groebner bases over graded polynomial rings, with elimination.

All basis computations run over the base polynomial ring Q.  Submodules of a
free module over a quotient A = Q/(z) are handled by adjoining the relation
multiples z_j * e_k of the ambient basis, which turns membership, equality
and kernel questions over A into the same Q-computations.

Vectors are tuples of GradedPoly (one entry per ambient position) and must
be homogeneous in the twisted sense.  The term order is position-over-term:
positions are ranked by ascending twist (ties by index), earlier rank wins
outright, and within a position the ring's monomial order applies.

Every basis comes from one degree-ordered Buchberger loop, whose heap holds
the inputs as well as the S-pairs.  Its bases are minimal and monic but not
tail-reduced, and they record which inputs entered; minimal_generators reads
graded Nakayama off that record, optionally modulo a submodule S (the same
modulo as Elimination's).

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
    """Minimal monic Groebner basis of a submodule of a free Q-module;
    elements are plain vectors sorted by ascending leading term.

    No leading term divides another, but tails are not reduced, so the
    elements are not unique: their leading terms, normal forms and span are.
    kept lists the indices of the inputs that entered the basis, in the
    order they entered; every other input reduced to zero.
    """

    __slots__ = ("ambient", "order", "elements", "leading_terms", "kept")

    def __init__(self, ambient, order, elements, leading_terms, kept=()):
        self.ambient = ambient
        self.order = order
        self.elements = elements
        self.leading_terms = leading_terms
        self.kept = kept

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
    """Minimal monic Groebner basis of the Q-submodule generated by gens.

    Homogeneous Buchberger over one heap in ascending degree (La Scala and
    Stillman's degree-by-degree strategy): each input enters at its degree,
    each S-pair at its S-degree, and at equal degree S-pairs pop first and
    inputs follow in list order.  When an entry pops, the basis so far is a
    Groebner basis up to that degree of everything popped before it, so an
    input is redundant iff it reduces to zero, and the basis is minimal: no
    leading term divides another.  A new element from an S-pair of degree above cap aborts
    with DegreeCapExceeded; inputs are exempt.  The product (coprime
    leading monomial) criterion is applied only in ambient rank 1; it is
    not valid for module leading terms in general.
    """
    if order is None:
        order = ModuleOrder(ambient)
    field = ambient.base.field
    # (degree, 0, i, j) for the S-pair of elements i < j, (degree, 1, i, g)
    # for the input g = gens[i]; the second slot puts S-pairs first
    heap = [
        (vec_degree(ambient, g), 1, i, g)
        for i, g in enumerate(gens)
        if not vec_is_zero(g)
    ]
    heapq.heapify(heap)
    vecs, lts, kept = [], [], []
    while heap:
        d, is_input, i, j = heapq.heappop(heap)
        if is_input:
            r = _reduce(_accumulator(j), vecs, lts, order)
        else:
            (_, ei, _), (_, ej, _) = lts[i], lts[j]
            lcm = monomial_lcm(ei, ej)
            # the S-polynomial x^a g_i - x^b g_j of two monic elements
            s = [{} for _ in range(ambient.rank)]
            _sub_multiple(s, vecs[i], monomial_div(lcm, ei), field.neg(field.one), field)
            _sub_multiple(s, vecs[j], monomial_div(lcm, ej), field.one, field)
            r = _reduce(s, vecs, lts, order)
        if vec_is_zero(r):
            continue
        if is_input:
            kept.append(i)
        elif cap is not None and d > cap:
            raise DegreeCapExceeded(
                f"Groebner element of degree {d} exceeds cap {cap}", d, cap
            )
        k, e, c = order.leading_term(r)
        for m, (mk, me, _) in enumerate(lts):
            if mk != k:
                continue
            ldeg = monomial_degree(monomial_lcm(me, e))
            if ambient.rank == 1 and ldeg == monomial_degree(me) + monomial_degree(e):
                continue
            heapq.heappush(heap, (ldeg + ambient.twists[k], 0, m, len(vecs)))
        vecs.append(vec_scale(r, field.inv(c)))
        lts.append((k, e, field.one))

    final = sorted(range(len(vecs)), key=lambda i: order.term_key(*lts[i][:2]))
    return GroebnerBasis(
        ambient, order, [vecs[i] for i in final], [lts[i] for i in final], kept
    )


# -- submodules over Q or A ---------------------------------------------------


def relation_vectors(F: GradedFreeModule):
    """The vectors z_j * e_k embedding (z)F (none over Q)."""
    return scaled_basis(F, F.ring.relations)


def submodule_gb(gens, F: GradedFreeModule, cap=DEFAULT_DEGREE_CAP):
    """Groebner basis deciding membership in the submodule of F spanned by
    gens, over F's ring (relation multiples are adjoined over a quotient)."""
    ambient = GradedFreeModule(F.base, F.twists)
    return buchberger(list(gens) + relation_vectors(F), ambient, cap=cap)


def submodule_contains(gb: GroebnerBasis, vec) -> bool:
    return vec_is_zero(normal_form(vec, gb))


def submodule_equal(gens1, gens2, F: GradedFreeModule, cap=DEFAULT_DEGREE_CAP) -> bool:
    """Equality of the two spans inside F, decided by mutual containment
    (minimal bases are not unique, so their elements are not compared)."""
    gb1 = submodule_gb(gens1, F, cap=cap)
    gb2 = submodule_gb(gens2, F, cap=cap)
    return all(submodule_contains(gb2, g) for g in gens1) and all(
        submodule_contains(gb1, g) for g in gens2
    )


def minimal_generators(gens, F: GradedFreeModule, modulo=()):
    """Subset of gens whose images minimally generate (span + S)/S over F's
    ring, for the submodule S of F spanned by modulo (S = 0 by default).

    Graded Nakayama read off one uncapped buchberger run over Q on the
    relation multiples and the modulo vectors followed by the entrywise
    normal forms of gens: a generator of degree t enters the basis iff it
    is independent of S, the positive-degree multiples of all generators
    and the same-degree generators already kept.  Relation multiples and
    modulo vectors go first, so they are never candidates.  Output sorted
    by descending degree (stable within a degree).
    """
    gens = [vec_reduce_entries(F, g) for g in gens]
    gens = [g for g in gens if not vec_is_zero(g)]
    if not gens:
        return []
    fixed = relation_vectors(F) + list(modulo)
    ambient = GradedFreeModule(F.base, F.twists)
    gb = buchberger(fixed + gens, ambient, cap=None)
    kept = [gens[n - len(fixed)] for n in gb.kept if n >= len(fixed)]
    kept.sort(key=lambda g: -vec_degree(F, g))
    return kept


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
