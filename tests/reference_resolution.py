"""The resolution loop and minimization as they were before every syzygy
step took minimal generators: `_extend` took raw kernel generators at the
early steps of a non-minimal resolution over Q in three or more variables,
and `minimize` rescanned from level 1 after each cancellation.  Kept as the
reference that test_resolution.py compares `cmreg.resolution` against."""

from __future__ import annotations

from cmreg.freemod import (
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    map_from_columns,
    vec_degree,
)
from cmreg.groebner import DEFAULT_DEGREE_CAP, kernel, minimal_generators
from cmreg.resolution import FreeResolution


def _unit_entry(mats, twist_lists):
    """First (l, k, m) with a nonzero constant entry, scanning l, k, m
    ascending; None when every entry has positive degree."""
    for l in range(1, len(twist_lists)):
        for k, row in enumerate(mats[l]):
            for m, p in enumerate(row):
                if p.is_zero():
                    continue
                if twist_lists[l][m] == twist_lists[l - 1][k]:
                    return (l, k, m)
    return None


def minimize(R: FreeResolution) -> FreeResolution:
    """Cancel unit entries (Gaussian elimination on the complex) until all
    differential entries lie in the irrelevant ideal.

    A unit u at row k, column m of d_l splits off an exact pair: d_l sheds
    row k and column m with the correction B - w u^{-1} v, d_{l+1} sheds
    row m, and d_{l-1} sheds column k.  A row whose entry w in column m is
    zero needs no correction and is carried over as it is.
    """
    ring = R.ring
    field = R.modules[0].base.field if R.modules else None
    twist_lists = [list(F.twists) for F in R.modules]
    mats = [None] + [
        [list(row) for row in d.matrix] for d in R.maps
    ]  # mats[l][k][m], 1-based in l

    while True:
        hit = _unit_entry(mats, twist_lists)
        if hit is None:
            break
        l, k, m = hit
        uinv = field.inv(mats[l][k][m].lc())
        v = mats[l][k][:m] + mats[l][k][m + 1:]
        new = []
        for k2, row in enumerate(mats[l]):
            if k2 == k:
                continue
            w = row[m]
            row = row[:m] + row[m + 1:]
            if not w.is_zero():
                row = [
                    ring.normal_form(p - (w * q).scale(uinv))
                    for p, q in zip(row, v)
                ]
            new.append(row)
        mats[l] = new
        if l + 1 < len(mats):
            mats[l + 1] = [row for j, row in enumerate(mats[l + 1]) if j != m]
        if l - 1 >= 1:
            mats[l - 1] = [
                [p for j, p in enumerate(row) if j != k] for row in mats[l - 1]
            ]
        del twist_lists[l][m]
        del twist_lists[l - 1][k]

    modules = [GradedFreeModule(ring, tuple(t)) for t in twist_lists]
    maps = [
        GradedMap(modules[l], modules[l - 1], mats[l])
        for l in range(1, len(modules))
    ]
    return FreeResolution(
        ring, modules, maps, minimal=True, complete=R.complete
    )


def minimal_presentation(M: ModulePresentation) -> ModulePresentation:
    """Equivalent presentation with a minimal cover and minimal relations,
    through the reference minimize."""
    F1 = M.relations.source
    pruned = minimize(FreeResolution(M.ring, [M.cover, F1], [M.relations]))
    F = pruned.modules[0]
    cols = minimal_generators(pruned.maps[0].columns(), F).columns()
    return ModulePresentation(
        map_from_columns(tuple(vec_degree(F, c) for c in cols), F, cols)
    )


def _extend(current: GradedMap, degree_cap, minimal=True):
    """Next differential d: F -> source(current), or None at exactness."""
    K = kernel(current, cap=degree_cap)
    if minimal:
        K = minimal_generators(K, current.source).columns()
    if not K:
        return None
    twists = tuple(vec_degree(current.source, v) for v in K)
    return map_from_columns(twists, current.source, K)


def _resolve(M: ModulePresentation, cap, minimal, degree_cap) -> FreeResolution:
    """F_0..F_cap of a resolution of M by iterated kernels, complete when
    a kernel vanishes first.  Each new d_l is built from minimal kernel
    generators when minimal is set or l >= nvars (see resolve_over_Q)."""
    modules = [M.cover]
    maps = []
    complete = False
    current = M.relations
    for l in range(1, cap + 1):
        if current.source.rank == 0:
            complete = True
            break
        modules.append(current.source)
        maps.append(current)
        if l == cap:
            break
        current = _extend(current, degree_cap, minimal or l + 1 >= M.ring.nvars)
        if current is None:
            complete = True
            break
    return FreeResolution(
        M.ring, modules, maps, minimal=minimal, complete=complete
    )


def resolve_over_Q(M: ModulePresentation, minimal=True, degree_cap=DEFAULT_DEGREE_CAP):
    """The reference loop over Q, through nvars + 1 (minimal) or nvars + 2
    steps; the caller checks the length."""
    if minimal:
        M = minimal_presentation(M)
    limit = M.ring.nvars if minimal else M.ring.nvars + 1
    return _resolve(M, limit + 1, minimal, degree_cap)


def resolve_over_A(M: ModulePresentation, cap: int, degree_cap=DEFAULT_DEGREE_CAP):
    return _resolve(minimal_presentation(M), cap, True, degree_cap)
