"""Graded Ext_A^i(M, N) and Tor_i^A(M, N) as explicit subquotients.

For F_i = +_k A(-a_ik) and N = coker(psi: S -> G), the term Hom_A(F_i, N)
is represented on the ambient free module T_i = +_k G(a_ik): an element is
the tuple of images of the F_i basis.  The coboundary is precomposition
with the differential, so its blocks are scalar copies of the transposed
differential entries.  Tensor terms work the same way with T_i = +_k
G(-a_ik) and untransposed blocks.  Cycles are the kernel of the outgoing
differential modulo the coefficient-module relations (Elimination's modulo
argument), and boundaries are the previous differential's columns plus
those relations; they are cycles because d_i o d_{i+1} = 0 over A, which
_homology checks by polynomial arithmetic before any Groebner work.

to_presentation works modulo the boundaries throughout: the cover is a
minimal generating set of Z modulo B, and the kernel of one Elimination
modulo B, after a Nakayama pass, gives the relations.  That Elimination is
kept on the result and writes any cycle in the cover (as ci_ops does for
the CI operators).
"""

from __future__ import annotations

from .errors import InternalConsistencyError
from .freemod import (
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    basis_vector,
    free_presentation,
)
from .groebner import DEFAULT_DEGREE_CAP, Elimination, kernel, minimal_generators
from .resolution import FreeResolution, resolve_over_A


class SubquotientPresentation:
    """Z/B inside an ambient free module, with a derived presentation.

    generators holds the chosen vectors of Z, whose images minimally
    generate Z/B; the presentation's cover basis corresponds to them in
    order.  elimination is the Elimination of the generator map modulo B,
    whose preimage(v) writes a cycle v in the generators modulo B; it is
    None when Z/B is zero.
    """

    def __init__(self, generators, presentation, elimination=None):
        self.generators = generators
        self.presentation = presentation
        self.elimination = elimination


def to_presentation(ambient, cycles, boundaries, degree_cap=DEFAULT_DEGREE_CAP):
    """Present (Z + B)/B, which is Z/B when B lies in Z, minimally: the
    cover is a minimal generating set of Z modulo B, and the relations
    minimally generate {x : gens*x in B}, the kernel of one Elimination
    modulo B.  Both come from graded Nakayama, so the presentation has the
    Betti numbers beta_0 and beta_1 of Z/B."""
    zmap = minimal_generators(cycles, ambient, modulo=boundaries)
    if not zmap.source.rank:
        return SubquotientPresentation([], free_presentation(ambient.ring, ()))
    elim = Elimination(zmap, degree_cap, modulo=boundaries)
    pres = ModulePresentation(minimal_generators(elim.kernel(), zmap.source))
    return SubquotientPresentation(zmap.columns(), pres, elim)


# -- hom and tensor complexes --------------------------------------------------


def _term(F: GradedFreeModule, G: GradedFreeModule, dual: bool):
    """The ambient of Hom(F, N) (dual: twists b - a) or F tensor N (twists
    b + a): one copy of G per basis vector of F."""
    sign = -1 if dual else 1
    return GradedFreeModule(
        F.ring, tuple(b + sign * a for a in F.twists for b in G.twists)
    )


def _block_map(d: GradedMap, G: GradedFreeModule, dual: bool) -> GradedMap:
    """The map that d: F -> F' induces on ambients: Hom(F', N) -> Hom(F, N)
    with transposed blocks (dual), or F tensor N -> F' tensor N."""
    src, tgt = _term(d.target, G, dual), _term(d.source, G, dual)
    if not dual:
        src, tgt = tgt, src
    rG = G.rank
    rows = [[G.base.zero] * src.rank for _ in range(tgt.rank)]
    for k, row in enumerate(d.matrix):
        for m, p in enumerate(row):
            if p.is_zero():
                continue
            r, c = (m, k) if dual else (k, m)
            for t in range(rG):
                rows[r * rG + t][c * rG + t] = p
    return GradedMap(src, tgt, rows)


def _relation_columns(Frank, G, psi_cols):
    zero = G.base.zero
    cols = []
    for k in range(Frank):
        for col in psi_cols:
            v = [zero] * (Frank * G.rank)
            for t in range(G.rank):
                v[k * G.rank + t] = col[t]
            cols.append(tuple(v))
    return cols


def _require_depth(R: FreeResolution, i: int):
    if R.length >= i + 1 or R.complete:
        return
    raise ValueError(
        f"resolution of homological length {R.length} is too short for index {i}"
    )


def _homology(M, N, i, R, degree_cap, dual):
    """H at T_i of Hom(F, N) (dual) or F tensor N: cycles from the map
    leaving T_i, boundaries from the map entering it."""
    if R is None:
        R = resolve_over_A(M, cap=i + 1, degree_cap=degree_cap)
    _require_depth(R, i)
    if i > R.length:
        # the resolution stopped before i, so the module vanishes
        return to_presentation(GradedFreeModule(R.ring, ()), [], [], degree_cap)
    if 1 <= i < R.length and not R.is_complex_at(i):
        # the boundaries at T_i are cycles iff d_i o d_{i+1} = 0 over A
        raise InternalConsistencyError(f"d_{i} o d_{i + 1} is not zero over the ring")
    G = N.cover
    psi_cols = N.relations.columns()
    Ti = _term(R.modules[i], G, dual)
    nxt, prv = (i + 1, i - 1) if dual else (i - 1, i + 1)
    if 0 <= nxt <= R.length:
        delta = _block_map(R.d(max(i, nxt)), G, dual)
        rels = _relation_columns(R.modules[nxt].rank, G, psi_cols)
        cycles = kernel(delta, cap=degree_cap, modulo=rels)
    else:
        # next term is zero: every element is a cycle
        cycles = [basis_vector(Ti, k) for k in range(Ti.rank)]
    boundaries = _relation_columns(R.modules[i].rank, G, psi_cols)
    if 0 <= prv <= R.length:
        boundaries = _block_map(R.d(max(i, prv)), G, dual).columns() + boundaries
    return to_presentation(Ti, cycles, boundaries, degree_cap)


def ext(
    M: ModulePresentation,
    N: ModulePresentation,
    i: int,
    resolution: FreeResolution = None,
    degree_cap=DEFAULT_DEGREE_CAP,
) -> SubquotientPresentation:
    """Ext_A^i(M, N) as a subquotient of T_i = Hom_A(F_i, N)'s ambient."""
    if i < 0:
        raise ValueError("negative cohomological index")
    return _homology(M, N, i, resolution, degree_cap, dual=True)


def tor(
    M: ModulePresentation,
    N: ModulePresentation,
    i: int,
    resolution: FreeResolution = None,
    degree_cap=DEFAULT_DEGREE_CAP,
) -> SubquotientPresentation:
    """Tor_i^A(M, N) as a subquotient of T_i = (F_i tensor N)'s ambient."""
    if i < 0:
        raise ValueError("negative homological index")
    return _homology(M, N, i, resolution, degree_cap, dual=False)
