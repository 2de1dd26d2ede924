"""Eisenbud operators of a complete intersection A = Q/(z_1..z_c).

A minimal A-free resolution F of M lifts to Q by reading its matrices as
matrices over Q (the entries are canonical-form polynomials already).  The
lifted differential no longer squares to zero, but every entry of d~^2
lies in (z_1..z_c), so

    d~ o d~ = sum_j z_j * t~_j

for degree-preserving maps t~_j : F_{l} -> F_{l-2}(-f_j), f_j = deg z_j.
The coefficients of each entry are a preimage under the map
(z_1..z_c) : Q(-f_1) + ... + Q(-f_c) -> Q, read off one Elimination basis,
so they come out reduced modulo the Koszul syzygies of z; an entry outside
(z) would contradict d^2 = 0 over A and raises InternalConsistencyError.

Each t~_j induces an operator chi_j : Ext^i_A(M, N) -> Ext^{i+2}_A(M, N)(-f_j)
by precomposition; these commute with one another up to homotopy, hence
exactly on Ext.  induced_on_ext computes chi_j on presentations, writing
each image in the generators of Ext^{i+2} with the Elimination that ext_tor
built to present it, and PresentationMap.equals_mod_relations decides
equality of two such maps.
"""

from __future__ import annotations

from .errors import InternalConsistencyError
from .ext_tor import _block_map, ext
from .freemod import (
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    map_from_columns,
    vec_reduce_entries,
)
from .groebner import (
    DEFAULT_DEGREE_CAP,
    Elimination,
    submodule_contains,
    submodule_gb,
)
from .resolution import FreeResolution
from .rings import QuotientRing


def lift_resolution(R: FreeResolution) -> FreeResolution:
    """The standard lifting: the matrices of an A-free resolution read over
    Q = A's base, with the same twists.  d~ o d~ lies in (z) but need not
    vanish, so the result is usually not a complex."""
    ring = R.ring
    if not isinstance(ring, QuotientRing):
        raise ValueError("lifting expects a resolution over a quotient ring")
    Q = ring.base
    modules = [GradedFreeModule(Q, F.twists) for F in R.modules]
    maps = [
        GradedMap(modules[l + 1], modules[l], R.maps[l].matrix)
        for l in range(R.length)
    ]
    return FreeResolution(Q, modules, maps, minimal=R.minimal)


class CIOperators:
    """The t~_j : F_l -> F_{l-2}(-f_j) for 2 <= l <= length, j in relation
    input order; fs are the deg(z_j) and f = min(fs)."""

    __slots__ = ("resolution", "lifted", "fs", "operators")

    def __init__(self, resolution, lifted, fs, operators):
        self.resolution = resolution
        self.lifted = lifted
        self.fs = fs
        self.operators = operators

    @property
    def f(self):
        return min(self.fs)

    def t(self, j, l) -> GradedMap:
        """t~_j at homological level l, a map F_l -> F_{l-2}(-f_j)."""
        return self.operators[j][l]

    def levels(self):
        return sorted(self.operators[0]) if self.operators else []

    def identity_holds(self, l) -> bool:
        """Recheck d~_{l-1} o d~_l = sum_j z_j t~_j at level l by direct
        polynomial arithmetic over Q."""
        comp = self.lifted.d(l - 1).compose(self.lifted.d(l))
        Q = self.lifted.ring
        ring = self.resolution.ring
        for k in range(comp.target.rank):
            for m in range(comp.source.rank):
                acc = Q.zero
                for j, z in enumerate(ring.relations):
                    acc = acc + z * self.operators[j][l].matrix[k][m]
                if not (comp.matrix[k][m] - acc).is_zero():
                    return False
        return True


def eisenbud_operators(R) -> CIOperators:
    """Extract the CI operators of an A-free resolution R (A = Q/(z))."""
    ring = R.ring
    if not ring.relations:
        raise ValueError("CI operators need a quotient by a nonempty sequence")
    Q = ring.base
    L = lift_resolution(R)
    fs = tuple(z.degree for z in ring.relations)
    zmap = GradedMap(
        GradedFreeModule(Q, fs), GradedFreeModule(Q, (0,)), [ring.relations]
    )
    elim = Elimination(zmap, cap=None)
    c = len(fs)
    operators = {j: {} for j in range(c)}
    for l in range(2, R.length + 1):
        comp = L.d(l - 1).compose(L.d(l))
        mats = [
            [[Q.zero] * comp.source.rank for _ in range(comp.target.rank)]
            for _ in range(c)
        ]
        for k in range(comp.target.rank):
            for m in range(comp.source.rank):
                p = comp.matrix[k][m]
                if p.is_zero():
                    continue
                coeffs = elim.preimage((p,))
                if coeffs is None:
                    raise InternalConsistencyError(
                        "lifted d^2 entry not in (z)"
                    )
                for j, cj in enumerate(coeffs):
                    mats[j][k][m] = cj
        for j in range(c):
            operators[j][l] = GradedMap(
                L.module(l), L.module(l - 2).shift(fs[j]), mats[j]
            )
    return CIOperators(R, L, fs, operators)


class PresentationMap:
    """A homomorphism between presented graded modules, recorded as a
    degree-0 map between their covers that descends to the quotients."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: ModulePresentation, target: ModulePresentation, cover_map: GradedMap):
        if cover_map.source != source.cover or cover_map.target != target.cover:
            raise ValueError("cover map does not match the presentations")
        self.source = source
        self.target = target
        self.map = cover_map

    def shift(self, m: int) -> PresentationMap:
        return PresentationMap(
            self.source.shift(m), self.target.shift(m), self.map.shift(-m)
        )

    def compose(self, other: PresentationMap) -> PresentationMap:
        """self o other (apply other first)."""
        return PresentationMap(
            other.source, self.target, self.map.compose(other.map)
        )

    def equals_mod_relations(self, other: PresentationMap, degree_cap=DEFAULT_DEGREE_CAP) -> bool:
        """Same map of quotient modules: the cover maps agree on every
        generator modulo the target's relation submodule."""
        if self.map.source.twists != other.map.source.twists:
            return False
        if self.map.target.twists != other.map.target.twists:
            return False
        rel_cols = self.target.relations.columns()
        gb = submodule_gb(rel_cols, self.target.cover, cap=degree_cap)
        for m in range(self.map.source.rank):
            diff = tuple(
                a - b
                for a, b in zip(self.map.column(m), other.map.column(m))
            )
            if not submodule_contains(gb, diff):
                return False
        return True


def induced_on_ext(
    T: CIOperators,
    j: int,
    i: int,
    N: ModulePresentation,
    degree_cap=DEFAULT_DEGREE_CAP,
) -> PresentationMap:
    """chi_j : Ext^i_A(M, N) -> Ext^{i+2}_A(M, N)(-f_j) on presentations.

    Precomposition with t~_j sends a cocycle phi : F_i -> N to phi o t~_j;
    the image cocycle is rewritten in the chosen generators of Ext^{i+2}
    modulo coboundaries.
    """
    R = T.resolution
    ring = R.ring
    fj = T.fs[j]
    Ei = ext(None, N, i, resolution=R, degree_cap=degree_cap)
    Ei2 = ext(None, N, i + 2, resolution=R, degree_cap=degree_cap)
    source = Ei.presentation
    target = Ei2.presentation.shift(-fj)

    if not source.cover.rank or not target.cover.rank:
        zero_cols = [
            tuple(ring.base.zero for _ in range(target.cover.rank))
            for _ in range(source.cover.rank)
        ]
        cover_map = map_from_columns(source.cover.twists, target.cover, zero_cols)
        return PresentationMap(source, target, cover_map)

    # ambient precomposition U : T_i -> T_{i+2}(-f_j), block (m,t) <- (k,t);
    # t~_j acts on Q-representatives, and preimages take any of them
    U = _block_map(T.t(j, i + 2), N.cover, dual=True)

    # rewrite each generator image in the generators of Ext^{i+2} modulo
    # its coboundaries, with the elimination that presented it
    out_cols = []
    for zvec in Ei.generators:
        x = Ei2.elimination.preimage(U.apply(zvec))
        if x is None:
            raise InternalConsistencyError(
                "induced cocycle is not a cycle modulo coboundaries"
            )
        out_cols.append(vec_reduce_entries(Ei2.presentation.cover, x))
    cover_map = map_from_columns(source.cover.twists, target.cover, out_cols)
    return PresentationMap(source, target, cover_map)


def operators_commute(
    T: CIOperators,
    N: ModulePresentation,
    i: int,
    j: int,
    k: int,
    degree_cap=DEFAULT_DEGREE_CAP,
) -> bool:
    """chi_j chi_k = chi_k chi_j as maps Ext^i -> Ext^{i+4}(-f_j-f_k)."""
    fj, fk = T.fs[j], T.fs[k]
    chi_j_i = induced_on_ext(T, j, i, N, degree_cap)
    chi_k_i = induced_on_ext(T, k, i, N, degree_cap)
    chi_j_up = induced_on_ext(T, j, i + 2, N, degree_cap).shift(-fk)
    chi_k_up = induced_on_ext(T, k, i + 2, N, degree_cap).shift(-fj)
    left = chi_k_up.compose(chi_j_i)
    right = chi_j_up.compose(chi_k_i)
    return left.equals_mod_relations(right, degree_cap)
