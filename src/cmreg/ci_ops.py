"""Eisenbud operators of a complete intersection A = Q/(z_1..z_c).

A minimal A-free resolution F of M lifts to Q by reading its matrices as
matrices over Q (the entries are canonical-form polynomials already).  The
lifted differential no longer squares to zero, but every entry of d~^2
lies in (z_1..z_c), so

    d~ o d~ = sum_j z_j * t~_j

for degree-preserving maps t~_j : F_{l} -> F_{l-2}(-f_j), f_j = deg z_j.
The coefficient maps are extracted by exact division against a tracked
Groebner basis of (z); a nonzero division remainder would contradict
d^2 = 0 over A and raises InternalConsistencyError.

Each t~_j induces an operator chi_j : Ext^i_A(M, N) -> Ext^{i+2}_A(M, N)(-f_j)
by precomposition; these commute with one another up to homotopy, hence
exactly on Ext.  induced_on_ext computes chi_j on presentations and
PresentationMap.equals_mod_relations decides equality of two such maps.
"""

from __future__ import annotations

from .errors import InternalConsistencyError
from .ext_tor import ext, hom_complex
from .freemod import (
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    map_from_columns,
    vec_degree,
    vec_is_zero,
    vec_reduce_entries,
)
from .groebner import (
    DEFAULT_DEGREE_CAP,
    Elimination,
    buchberger,
    divide,
    normal_form,
    submodule_gb,
)
from .rings import QuotientRing


class LiftedResolution:
    """A free complex over Q carrying the matrices of an A-free resolution
    with the same twists (the standard lifting)."""

    __slots__ = ("ring", "modules", "maps")

    def __init__(self, ring, modules, maps):
        self.ring = ring
        self.modules = modules
        self.maps = maps

    @property
    def length(self):
        return len(self.maps)

    def module(self, l):
        return self.modules[l]

    def d(self, l):
        """The lifted differential F_l -> F_{l-1} (1-based, like the source
        resolution)."""
        return self.maps[l - 1]


def lift_resolution(R) -> LiftedResolution:
    """Reinterpret the matrices of an A-free resolution over Q = A's base."""
    ring = R.ring
    if not isinstance(ring, QuotientRing):
        raise ValueError("lifting expects a resolution over a quotient ring")
    Q = ring.base
    modules = [GradedFreeModule(Q, F.twists) for F in R.modules]
    maps = [
        GradedMap(modules[l + 1], modules[l], R.maps[l].matrix)
        for l in range(R.length)
    ]
    return LiftedResolution(Q, modules, maps)


def _z_coefficients(p, gbz, nrels):
    """Write the Q-polynomial p as sum_j c_j z_j via the tracked basis gbz
    of (z_1..z_c); returns the list [c_1..c_c]."""
    ring = p.ring
    remainder, quotients = divide((p,), gbz)
    if not remainder[0].is_zero():
        raise InternalConsistencyError(
            "nonzero CI-division remainder: lifted d^2 entry not in (z)"
        )
    coeffs = [ring.zero] * nrels
    for t, q in enumerate(quotients):
        if q.is_zero():
            continue
        for j in range(nrels):
            rep = gbz.reps[t][j]
            if not rep.is_zero():
                coeffs[j] = coeffs[j] + q * rep
    return coeffs


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

    @property
    def nops(self):
        return len(self.fs)

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
    if not isinstance(ring, QuotientRing) or not ring.relations:
        raise ValueError("CI operators need a quotient by a nonempty sequence")
    Q = ring.base
    L = lift_resolution(R)
    fs = tuple(z.degree for z in ring.relations)
    gbz = buchberger(
        [(z,) for z in ring.relations],
        GradedFreeModule(Q, (0,)),
        cap=None,
        tracked=True,
    )
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
                for j, cj in enumerate(_z_coefficients(p, gbz, c)):
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
            diff = vec_reduce_entries(self.target.cover, diff)
            if vec_is_zero(diff):
                continue
            if not vec_is_zero(normal_form(diff, gb)):
                return False
        return True


def _generator_map(E):
    """The map (free on E's generators) -> E.ambient sending basis vectors
    to the chosen generating cycles."""
    return map_from_columns(
        E.presentation.generator_degrees, E.ambient, E.generators
    )


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
    rG = N.cover.rank

    if not source.cover.rank or not target.cover.rank:
        zero_cols = [
            tuple(ring.base.zero for _ in range(target.cover.rank))
            for _ in range(source.cover.rank)
        ]
        cover_map = map_from_columns(source.cover.twists, target.cover, zero_cols)
        return PresentationMap(source, target, cover_map)

    # ambient precomposition U : T_i -> T_{i+2}(-f_j), block (m,t) <- (k,t)
    tmap = T.t(j, i + 2)
    H = hom_complex(R, N)
    Ti2 = H.terms[i + 2]
    zero = ring.base.zero
    rows = [[zero] * Ei.ambient.rank for _ in range(Ti2.rank)]
    for k in range(R.modules[i].rank):
        for m in range(R.modules[i + 2].rank):
            p = tmap.matrix[k][m]
            if p.is_zero():
                continue
            p = ring.normal_form(p)
            for t in range(rG):
                rows[m * rG + t][k * rG + t] = p

    # rewrite each generator image in Ext^{i+2} coordinates: solve
    # gens*x + boundaries*y = U(z_s) inside the unshifted ambient
    zmap2 = _generator_map(Ei2)
    extra = Ei2.boundaries
    cols = zmap2.columns() + list(extra)
    twists = list(zmap2.source.twists) + [
        vec_degree(Ei2.ambient, cvec) for cvec in extra
    ]
    elim = Elimination(
        map_from_columns(tuple(twists), Ei2.ambient, cols), degree_cap
    )
    ngens2 = zmap2.source.rank
    out_cols = []
    for s in range(len(Ei.generators)):
        image = [zero] * Ti2.rank
        zvec = Ei.generators[s]
        for kk in range(Ei.ambient.rank):
            p = zvec[kk]
            if p.is_zero():
                continue
            for m in range(Ti2.rank):
                q = rows[m][kk]
                if not q.is_zero():
                    image[m] = image[m] + q * p
        image = vec_reduce_entries(Ti2, tuple(image))
        x = elim.preimage(image)
        if x is None:
            raise InternalConsistencyError(
                "induced cocycle is not a cycle modulo coboundaries"
            )
        out_cols.append(tuple(vec_reduce_entries(
            GradedFreeModule(ring, zmap2.source.twists), x[:ngens2]
        )))
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
