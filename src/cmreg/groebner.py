"""Module Groebner bases over graded polynomial rings, with elimination.

All basis computations run over the base polynomial ring Q.  Submodules of a
free module over a quotient A = Q/(z) are handled by adjoining the relation
multiples z_j * e_k of the ambient basis, which turns membership, equality
and kernel questions over A into the same Q-computations.

Vectors are tuples of GradedPoly (one entry per ambient position) and must
be homogeneous in the twisted sense; over a quotient their entries are any
Q-representatives, and only minimal_generators takes canonical forms mod
(z), of the vectors it returns.  The term order is position-over-term:
positions are ranked by ascending twist (ties by index), earlier rank wins
outright, and within a position the ring's monomial order applies.

Inside this module a monomial is packed into one int, a 16-bit field per
variable with x_d most significant.  All terms at one position of a
twisted-homogeneous vector have one degree, where degrevlex is revlex from
x_d down: the greatest term is the smallest int, and a product or quotient
is one add or subtract.  Exponents stay below 2^15, so the top bit of each
field is a guard: b divides a iff ((a + G) - b) & G == G for the guard bits
G.  Mixed twisted degrees raise HomogeneityError and entry degrees of 2^15
or more DegreeCapExceeded, instead of mis-ordering.  Public signatures keep
exponent tuples; a GroebnerBasis holds its elements packed, and its
elements and leading_terms views unpack them.

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
import struct

from .errors import DegreeCapExceeded
from .freemod import (
    GradedFreeModule,
    GradedMap,
    basis_vector,
    map_from_columns,
    scaled_basis,
    vec_degree,
    vec_is_zero,
    vec_reduce_entries,
)
from .rings import GradedPoly

DEFAULT_DEGREE_CAP = 40

#: entry degrees (hence exponents) must stay below this to be packed
PACKED_DEGREE_LIMIT = 1 << 15


class Packing:
    """Exponent tuples of nvars variables as ints: x_i in bits 16(i-1) up to
    16i, the top bit of each field left clear as its guard."""

    __slots__ = ("nvars", "guard", "_struct")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.guard = int.from_bytes(b"\x00\x80" * nvars, "little")
        self._struct = struct.Struct(f"<{nvars}H")

    def pack(self, exps) -> int:
        return int.from_bytes(self._struct.pack(*exps), "little")

    def unpack(self, key: int):
        return self._struct.unpack(key.to_bytes(2 * self.nvars, "little"))

    def divides(self, b: int, a: int) -> bool:
        return ((a + self.guard) - b) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        ge = ((a + self.guard) - b) & self.guard  # guards of the fields where a >= b
        mask = ge - (ge >> 15)  # those fields' exponent bits
        return (a & mask) | (b & ~mask)


def _check_packable(ambient: GradedFreeModule, degree):
    """Raise unless a vector of this degree (None: zero) packs every entry."""
    if degree is not None and degree - min(ambient.twists) >= PACKED_DEGREE_LIMIT:
        raise DegreeCapExceeded(f"degree {degree} overflows a packed monomial", degree)


class ModuleOrder:
    """Position-over-term order on a graded free module.

    seniority[k] = 0 marks the greatest position, and priority lists the
    positions greatest first.  The default ranking is by (twist, index)
    ascending; elimination orders pass an explicit ranking.
    """

    __slots__ = ("ambient", "priority", "seniority", "mono_key", "packing")

    def __init__(self, ambient: GradedFreeModule, position_priority=None):
        self.ambient = ambient
        if position_priority is None:
            position_priority = sorted(
                range(ambient.rank), key=lambda k: (ambient.twists[k], k)
            )
        self.priority = tuple(position_priority)
        self.seniority = {k: i for i, k in enumerate(position_priority)}
        self.mono_key = ambient.base.order_key
        self.packing = Packing(ambient.base.nvars)

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
    """Minimal monic Groebner basis of a submodule of a free Q-module, held
    as the divisor table buchberger built: table maps a position to
    [(packed leading monomial, coefficient, packed element)] in the order
    the elements entered (remainders do not depend on which divisor a
    division picks).  elements and leading_terms unpack it, sorted by
    ascending leading term.

    No leading term divides another, but tails are not reduced, so the
    elements are not unique: their leading terms, normal forms and span are.
    kept lists the indices of the inputs that entered the basis, in the
    order they entered; every other input reduced to zero.
    """

    __slots__ = ("ambient", "order", "table", "kept")

    def __init__(self, ambient, order, table, kept=()):
        self.ambient = ambient
        self.order = order
        self.table = table
        self.kept = kept

    def __len__(self):
        return sum(map(len, self.table.values()))

    def _sorted(self, positions):
        """(position, exponents, coefficient, packed element) of the
        elements led at positions, by ascending leading term."""
        unpack, key = self.order.packing.unpack, self.order.term_key
        rows = [(k, unpack(e), c, g) for k in positions for e, c, g in self.table.get(k, ())]
        return sorted(rows, key=lambda r: key(r[0], r[1]))

    def _vectors(self, positions):
        """The elements led at positions as vectors, by ascending leading term."""
        ambient, unpack = self.ambient, self.order.packing.unpack
        return [_unpacked(g, ambient, sum(e) + ambient.twists[k], unpack)
                for k, e, _, g in self._sorted(positions)]

    @property
    def elements(self):
        return self._vectors(self.table)

    @property
    def leading_terms(self):
        """(position, exponents, coefficient) of each element."""
        return [r[:3] for r in self._sorted(self.table)]


def _packed(vec, pack):
    """A mutable packed copy of vec: one {monomial: coeff} dict per position.
    A packed element keeps only the (position, dict) pairs of nonzero ones."""
    return [{pack(e): c for e, c in p.terms.items()} for p in vec]


def _unpacked(elem, ambient, degree, unpack):
    """The vector of degree `degree` with packed entries (position, terms)."""
    ring = ambient.base
    out = [ring.zero] * ambient.rank
    for k, terms in elem:
        if terms:
            poly = {unpack(e): c for e, c in terms.items()}
            out[k] = GradedPoly(ring, poly, degree - ambient.twists[k])
    return tuple(out)


def _sub_multiple(acc, g, q, c, field):
    """acc -= c * x^q * g for a packed element g and monomial q, in place and
    only on the support of g."""
    zero, sub, mul = field.zero, field.sub, field.mul
    for k, terms in g:
        d = acc[k]
        for e, x in terms.items():
            m = e + q
            y = sub(d.get(m, zero), mul(c, x))
            if y == zero:
                del d[m]
            else:
                d[m] = y


def _reduce(acc, divisors, order):
    """Full normal form (remainder) of the packed accumulator acc, which is
    consumed, against a divisor table (GroebnerBasis.table): position ->
    [(packed leading monomial, leading coefficient, packed element)].
    Positions are cleared most senior first, since no divisor of a term at
    position k touches a more senior position.  Divisor ties go to the
    earliest entry; the remainder is the same for any choice when the table
    holds a Groebner basis.  Returns (remainder, lead): one dict per
    position, and the remainder's greatest term (position, monomial,
    coefficient) or None when it is zero."""
    field = order.ambient.base.field
    divides = order.packing.divides
    remainder = [{} for _ in acc]
    lead = None
    for k in order.priority:
        d, rem, divs = acc[k], remainder[k], divisors.get(k, ())
        while d:
            e = min(d)
            for ge, gc, g in divs:
                if divides(ge, e):
                    _sub_multiple(acc, g, e - ge, field.div(d[e], gc), field)
                    break
            else:
                rem[e] = d.pop(e)
                if lead is None:
                    lead = (k, e, rem[e])
    return remainder, lead


def normal_form(vec, gb: GroebnerBasis):
    """Canonical representative of vec modulo the submodule of gb."""
    degree = vec_degree(gb.ambient, vec)
    _check_packable(gb.ambient, degree)
    packing = gb.order.packing
    rem, _ = _reduce(_packed(vec, packing.pack), gb.table, gb.order)
    return _unpacked(enumerate(rem), gb.ambient, degree, packing.unpack)


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
    packing = order.packing
    # (degree, 0, i, j) for the S-pair of elements i < j, (degree, 1, i, g)
    # for the input g = gens[i]; the second slot puts S-pairs first
    heap = [
        (vec_degree(ambient, g), 1, i, g)
        for i, g in enumerate(gens)
        if not vec_is_zero(g)
    ]
    heapq.heapify(heap)
    # packed elements, their (position, leading monomial), and their
    # divisor table in the order they entered
    elems, lts, kept, table = [], [], [], {}
    while heap:
        d, is_input, i, j = heapq.heappop(heap)
        _check_packable(ambient, d)
        if is_input:
            acc = _packed(j, packing.pack)
        else:
            (_, ei), (_, ej) = lts[i], lts[j]
            lcm = packing.lcm(ei, ej)
            # the S-polynomial x^a g_i - x^b g_j of two monic elements
            acc = [{} for _ in range(ambient.rank)]
            _sub_multiple(acc, elems[i], lcm - ei, field.neg(field.one), field)
            _sub_multiple(acc, elems[j], lcm - ej, field.one, field)
        rem, lead = _reduce(acc, table, order)
        if lead is None:
            continue
        if is_input:
            kept.append(i)
        elif cap is not None and d > cap:
            raise DegreeCapExceeded(
                f"Groebner element of degree {d} exceeds cap {cap}", d, cap
            )
        k, e, c = lead
        for m, (mk, me) in enumerate(lts):
            if mk != k:
                continue
            lcm = packing.lcm(me, e)
            if ambient.rank == 1 and lcm == me + e:
                continue
            s_degree = sum(packing.unpack(lcm)) + ambient.twists[k]
            heapq.heappush(heap, (s_degree, 0, m, len(elems)))
        inv = field.inv(c)
        elems.append(
            [(m, {x: field.mul(inv, y) for x, y in t.items()})
             for m, t in enumerate(rem) if t]
        )
        lts.append((k, e))
        table.setdefault(k, []).append((e, field.one, elems[-1]))
    return GroebnerBasis(ambient, order, table, kept)


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
    relation multiples and the modulo vectors followed by gens: a generator
    of degree t enters the basis iff it is independent of S, the
    positive-degree multiples of all generators and the same-degree
    generators already kept.  Relation multiples and modulo vectors go
    first, so they are never candidates and a generator in (z)F reduces to
    zero.  Returns the map onto F whose columns are the kept generators in
    canonical form mod (z), sorted by descending degree (stable within a
    degree); it has no columns when none is kept.  Only the basis's kept
    record is read, so no element is unpacked.
    """
    if not gens:
        return map_from_columns((), F, [])
    fixed = relation_vectors(F) + list(modulo)
    ambient = GradedFreeModule(F.base, F.twists)
    gb = buchberger(fixed + list(gens), ambient, cap=None)
    n0 = len(fixed)
    cols = [vec_reduce_entries(F, gens[n - n0]) for n in gb.kept if n >= n0]
    cols.sort(key=lambda g: -vec_degree(F, g))
    return map_from_columns(tuple(vec_degree(F, g) for g in cols), F, cols)


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
        """Generators of {x : phi(x) in S}; see kernel().  The basis elements
        led in the source block are those with zero target part, and only
        they are unpacked."""
        g, basis = self.g_rank, self.basis
        return [v[g:] for v in basis._vectors(range(g, basis.ambient.rank))]

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
    returned, as Q-representatives that may lie in (z) phi.source;
    minimal_generators takes their canonical forms.
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
