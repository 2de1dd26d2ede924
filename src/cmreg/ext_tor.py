"""Graded Ext_A^i(M, N) and Tor_i^A(M, N) as explicit subquotients.

For F_i = +_k A(-a_ik) and N = coker(psi: S -> G), the term Hom_A(F_i, N)
is represented on the ambient free module T_i = +_k G(a_ik): an element is
the tuple of images of the F_i basis.  The coboundary is precomposition
with the differential, so its blocks are scalar copies of the transposed
differential entries.  Tensor terms work the same way with T_i = +_k
G(-a_ik) and untransposed blocks.  Cycles are computed as a stacked kernel
(differential columns alongside the coefficient-module relations) and
boundaries as the previous differential's columns plus those relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalConsistencyError
from .freemod import (
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    basis_vector,
    map_from_columns,
    vec_degree,
    vec_is_zero,
    vec_reduce_entries,
    zero_map_into,
)
from .groebner import (
    DEFAULT_DEGREE_CAP,
    Elimination,
    kernel,
    minimal_generators,
)
from .resolution import FreeResolution, resolve_over_A


@dataclass
class SubquotientPresentation:
    """Z/B inside an ambient free module, with a derived presentation.

    generators holds the chosen generating vectors of Z (minimal ones);
    the presentation's cover basis corresponds to them in order.
    """

    ambient: GradedFreeModule
    cycles: list
    boundaries: list
    generators: list
    presentation: ModulePresentation


def to_presentation(ambient, cycles, boundaries, degree_cap=DEFAULT_DEGREE_CAP):
    """Present Z/B: minimal generators of Z become the cover, relations are
    the B-coordinates plus the syzygies of the chosen generators."""
    zmin = minimal_generators(cycles, ambient)
    if not zmin:
        pres = ModulePresentation(
            zero_map_into(GradedFreeModule(ambient.ring, ()))
        )
        return SubquotientPresentation(ambient, cycles, boundaries, [], pres)
    twists = tuple(vec_degree(ambient, v) for v in zmin)
    zmap = map_from_columns(twists, ambient, zmin)
    elim = Elimination(zmap, degree_cap)
    rel_cols = elim.kernel()
    for b in boundaries:
        b = vec_reduce_entries(ambient, b)
        if vec_is_zero(b):
            continue
        coords = elim.preimage(b)
        if coords is None:
            raise InternalConsistencyError(
                "boundary element is not a combination of the cycles"
            )
        coords = vec_reduce_entries(zmap.source, coords)
        if not vec_is_zero(coords):
            rel_cols.append(coords)
    cover = GradedFreeModule(ambient.ring, twists)
    if rel_cols:
        rel_twists = tuple(vec_degree(cover, c) for c in rel_cols)
        pres = ModulePresentation(map_from_columns(rel_twists, cover, rel_cols))
    else:
        pres = ModulePresentation(zero_map_into(cover))
    return SubquotientPresentation(ambient, cycles, boundaries, zmin, pres)


# -- hom and tensor complexes --------------------------------------------------


class HomComplex:
    """The cochain complex Hom_A(F, N) on ambient free modules.

    terms[l] = T_l, maps[l]: T_l -> T_{l+1} (defined for l < top), and
    relation_columns(l) spans the submodule of T_l that kills N's relations
    in every block.
    """

    def __init__(self, terms, maps, rel_builder):
        self.terms = terms
        self.maps = maps
        self._rel = rel_builder

    def relation_columns(self, l):
        return self._rel(l)


def _block_twists(F: GradedFreeModule, G: GradedFreeModule, sign: int):
    out = []
    for a in F.twists:
        for b in G.twists:
            out.append(b - a if sign > 0 else b + a)
    return tuple(out)


def _relation_columns(ring, Frank, G, psi_cols, Tl):
    zero = G.base.zero
    cols = []
    for k in range(Frank):
        for col in psi_cols:
            v = [zero] * Tl.rank
            for t in range(G.rank):
                v[k * G.rank + t] = col[t]
            cols.append(tuple(v))
    return cols


def hom_complex(R: FreeResolution, N: ModulePresentation) -> HomComplex:
    """0 -> Hom(F_0, N) -> Hom(F_1, N) -> ... as ambient modules T_l with
    transposed-differential block maps."""
    A = R.ring
    G = N.cover
    psi_cols = N.relations.columns()
    terms = []
    for F in R.modules:
        terms.append(GradedFreeModule(A, _block_twists(F, G, sign=+1)))
    zero = G.base.zero
    maps = []
    for l in range(R.length):
        D = R.d(l + 1).matrix  # rows k in F_l, cols k2 in F_{l+1}
        src, tgt = terms[l], terms[l + 1]
        rows = [[zero] * src.rank for _ in range(tgt.rank)]
        for k in range(R.modules[l].rank):
            for k2 in range(R.modules[l + 1].rank):
                p = D[k][k2]
                if p.is_zero():
                    continue
                for t in range(G.rank):
                    rows[k2 * G.rank + t][k * G.rank + t] = p
        maps.append(GradedMap(src, tgt, rows))

    def rel_builder(l):
        return _relation_columns(A, R.modules[l].rank, G, psi_cols, terms[l])

    return HomComplex(terms, maps, rel_builder)


def tensor_complex(R: FreeResolution, N: ModulePresentation) -> HomComplex:
    """... -> F_1 tensor N -> F_0 tensor N as ambient modules, with maps[l]:
    T_{l+1} -> T_l stored at index l."""
    A = R.ring
    G = N.cover
    psi_cols = N.relations.columns()
    terms = []
    for F in R.modules:
        terms.append(GradedFreeModule(A, _block_twists(F, G, sign=-1)))
    zero = G.base.zero
    maps = []
    for l in range(R.length):
        D = R.d(l + 1).matrix
        src, tgt = terms[l + 1], terms[l]
        rows = [[zero] * src.rank for _ in range(tgt.rank)]
        for k in range(R.modules[l].rank):
            for k2 in range(R.modules[l + 1].rank):
                p = D[k][k2]
                if p.is_zero():
                    continue
                for t in range(G.rank):
                    rows[k * G.rank + t][k2 * G.rank + t] = p
        maps.append(GradedMap(src, tgt, rows))

    def rel_builder(l):
        return _relation_columns(A, R.modules[l].rank, G, psi_cols, terms[l])

    return HomComplex(terms, maps, rel_builder)


def _stacked_kernel(delta: GradedMap, extra_cols, degree_cap):
    """Generators of {v in source : delta(v) in span(extra_cols)}."""
    tgt = delta.target
    cols = delta.columns() + [tuple(c) for c in extra_cols]
    twists = list(delta.source.twists) + [
        vec_degree(tgt, c) for c in extra_cols
    ]
    stacked = map_from_columns(tuple(twists), tgt, cols)
    n = delta.source.rank
    out = []
    for v in kernel(stacked, cap=degree_cap):
        w = vec_reduce_entries(delta.source, v[:n])
        if not vec_is_zero(w):
            out.append(w)
    return out


def _require_depth(R: FreeResolution, i: int):
    if R.length >= i + 1 or R.complete:
        return
    raise ValueError(
        f"resolution of homological length {R.length} is too short for index {i}"
    )


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
    if resolution is None:
        resolution = resolve_over_A(M, cap=i + 1, degree_cap=degree_cap)
    _require_depth(resolution, i)
    H = hom_complex(resolution, N)
    if i >= len(H.terms):
        # the resolution stopped before i, so Ext vanishes
        ambient = GradedFreeModule(resolution.ring, ())
        return to_presentation(ambient, [], [], degree_cap)
    Ti = H.terms[i]
    if i < len(H.maps):
        cycles = _stacked_kernel(H.maps[i], H.relation_columns(i + 1), degree_cap)
    else:
        # next term is zero: every element is a cycle
        cycles = [basis_vector(Ti, k) for k in range(Ti.rank)]
    boundaries = list(H.relation_columns(i))
    if i >= 1:
        boundaries = H.maps[i - 1].columns() + boundaries
    return to_presentation(Ti, cycles, boundaries, degree_cap)


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
    if resolution is None:
        resolution = resolve_over_A(M, cap=i + 1, degree_cap=degree_cap)
    _require_depth(resolution, i)
    T = tensor_complex(resolution, N)
    if i >= len(T.terms):
        ambient = GradedFreeModule(resolution.ring, ())
        return to_presentation(ambient, [], [], degree_cap)
    Ti = T.terms[i]
    if i >= 1:
        cycles = _stacked_kernel(T.maps[i - 1], T.relation_columns(i - 1), degree_cap)
    else:
        cycles = [basis_vector(Ti, k) for k in range(Ti.rank)]
    boundaries = list(T.relation_columns(i))
    if i < len(T.maps):
        boundaries = T.maps[i].columns() + boundaries
    return to_presentation(Ti, cycles, boundaries, degree_cap)
