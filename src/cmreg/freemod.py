"""Graded free modules, homogeneous maps, and cokernel presentations.

A free module is a twist list over a ring: twists (a1..ar) mean
R(-a1) + ... + R(-ar), so basis vector k is homogeneous of degree a_k.
Module elements ("vectors") are plain tuples of GradedPoly over the base
polynomial ring; when the ring is a quotient A = Q/(z) the entries are
representatives and canonical forms are taken entrywise mod (z).  Q itself
is the quotient by the empty sequence, so nothing here asks which it is.
"""

from __future__ import annotations

from .errors import HomogeneityError
from .rings import GradedPoly, PolyRing

#: Regularity of the zero module.
NEG_INF = float("-inf")


class GradedFreeModule:
    """R(-a1) + ... + R(-ar) over R = Q or A."""

    __slots__ = ("ring", "twists")

    def __init__(self, ring, twists):
        self.ring = ring
        self.twists = tuple(twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def base(self) -> PolyRing:
        return self.ring.base

    def shift(self, a: int) -> GradedFreeModule:
        """Shift every twist by a (rank unchanged)."""
        return GradedFreeModule(self.ring, tuple(t + a for t in self.twists))

    def __eq__(self, other):
        return (
            isinstance(other, GradedFreeModule)
            and other.ring == self.ring
            and other.twists == self.twists
        )

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return f"Free({self.ring!r}, twists={list(self.twists)})"


# -- vectors ---------------------------------------------------------------


def basis_vector(F: GradedFreeModule, k: int):
    one = F.base.one
    z = F.base.zero
    return tuple(one if i == k else z for i in range(F.rank))


def vec_is_zero(v) -> bool:
    return all(p.is_zero() for p in v)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(v, c):
    return tuple(a.scale(c) for a in v)


def vec_mul_poly(v, p: GradedPoly):
    return tuple(a * p for a in v)


def vec_degree(F: GradedFreeModule, v):
    """Common degree of a homogeneous vector; None for the zero vector."""
    deg = None
    for t, p in zip(F.twists, v):
        if p.is_zero():
            continue
        d = p.degree + t
        if deg is None:
            deg = d
        elif deg != d:
            raise HomogeneityError(f"vector mixes degrees {deg} and {d}")
    return deg


def vec_reduce_entries(F: GradedFreeModule, v):
    """Entrywise canonical form mod (z) when F lives over a quotient ring."""
    if F.ring.relations:
        return tuple(F.ring.normal_form(p) for p in v)
    return v


def scaled_basis(F: GradedFreeModule, scalars):
    """The vectors s * e_k of F, s outer and k inner."""
    zero = F.base.zero
    return [
        tuple(s if i == k else zero for i in range(F.rank))
        for s in scalars
        for k in range(F.rank)
    ]


# -- homogeneous maps --------------------------------------------------------


class GradedMap:
    """Degree-0 homogeneous map between graded free modules over one ring.

    matrix[k][m] is the coefficient of target basis k in the image of source
    basis m, so columns are the images of the source basis vectors and the
    entry degree must be source.twists[m] - target.twists[k] (or zero).
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)
        if len(self.matrix) != target.rank or any(
            len(row) != source.rank for row in self.matrix
        ):
            raise ValueError("matrix shape does not match module ranks")
        if check and not self.is_homogeneous():
            raise HomogeneityError("map entries violate the twist degree rule")

    def is_homogeneous(self) -> bool:
        for k, row in enumerate(self.matrix):
            for m, p in enumerate(row):
                if p.is_zero():
                    continue
                if p.degree != self.source.twists[m] - self.target.twists[k]:
                    return False
        return True

    def column(self, m: int):
        return tuple(self.matrix[k][m] for k in range(self.target.rank))

    def columns(self):
        return [self.column(m) for m in range(self.source.rank)]

    def apply(self, v):
        z = self.target.base.zero
        out = []
        for k in range(self.target.rank):
            acc = z
            for m, p in enumerate(v):
                if not p.is_zero() and not self.matrix[k][m].is_zero():
                    acc = acc + self.matrix[k][m] * p
            out.append(acc)
        return tuple(out)

    def compose(self, other: GradedMap) -> GradedMap:
        """self o other (apply other first)."""
        if other.target != self.source:
            raise ValueError("composition shape mismatch")
        cols = [self.apply(other.column(m)) for m in range(other.source.rank)]
        matrix = [
            [cols[m][k] for m in range(other.source.rank)]
            for k in range(self.target.rank)
        ]
        return GradedMap(other.source, self.target, matrix, check=False)

    def shift(self, a: int) -> GradedMap:
        return GradedMap(
            self.source.shift(a), self.target.shift(a), self.matrix, check=False
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedMap)
            and other.source == self.source
            and other.target == self.target
            and other.matrix == self.matrix
        )

    def __repr__(self):
        return (
            f"GradedMap({list(self.source.twists)} -> {list(self.target.twists)})"
        )


def map_from_columns(source_twists, target: GradedFreeModule, columns) -> GradedMap:
    source = GradedFreeModule(target.ring, source_twists)
    matrix = [
        [columns[m][k] for m in range(len(columns))] for k in range(target.rank)
    ]
    return GradedMap(source, target, matrix)


# -- presentations -----------------------------------------------------------


class ModulePresentation:
    """A finitely generated graded module as coker of a homogeneous map.
    Immutable, and equal to another exactly when their relations are."""

    def __init__(self, relations: GradedMap):
        object.__setattr__(self, "relations", relations)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: presentations are immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.relations == other.relations

    @property
    def cover(self) -> GradedFreeModule:
        """The free module whose basis maps onto the generators."""
        return self.relations.target

    @property
    def ring(self):
        return self.cover.ring

    @property
    def generator_degrees(self):
        return self.cover.twists

    def shift(self, m: int) -> ModulePresentation:
        """The twisted module M(m)."""
        return ModulePresentation(self.relations.shift(-m))

    def __repr__(self):
        return (
            f"Presentation(gens={list(self.cover.twists)}, "
            f"rels={list(self.relations.source.twists)} over {self.ring!r})"
        )


def free_presentation(ring, twists) -> ModulePresentation:
    F = GradedFreeModule(ring, twists)
    return ModulePresentation(map_from_columns((), F, []))


def quotient_by(M: ModulePresentation, scalars, ring) -> ModulePresentation:
    """M/(s)M presented over ring: M's relation columns with the twists M
    declares, then s * e_k of twist deg s + a_k (s outer, k inner)."""
    F = GradedFreeModule(ring, M.cover.twists)
    twists = M.relations.source.twists + tuple(
        s.degree + a for s in scalars for a in F.twists
    )
    cols = M.relations.columns() + scaled_basis(F, scalars)
    return ModulePresentation(map_from_columns(twists, F, cols))


def cyclic_presentation(ring, gens) -> ModulePresentation:
    """R/(g1..gs) as a presentation; gens are homogeneous ring elements."""
    target = GradedFreeModule(ring, (0,))
    gens = [g for g in gens if not g.is_zero()]
    source = GradedFreeModule(ring, tuple(g.degree for g in gens))
    return ModulePresentation(GradedMap(source, target, [list(gens)]))
