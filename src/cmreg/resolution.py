"""Graded free resolutions: finite minimal ones over Q, truncated ones over
a complete intersection A, post-hoc minimization, and Betti tables.

Construction is iterative: kernel of the previous differential, then a
minimal generating set of that kernel.  Starting from a minimal
presentation this yields a minimal resolution (a unit entry in some
differential would contradict minimality one step back), so minimize() is
needed only to repair presentations that arrive non-minimal.
"""

from __future__ import annotations

from .errors import InternalConsistencyError
from .freemod import (
    NEG_INF,
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    map_from_columns,
    vec_degree,
    vec_is_zero,
    vec_reduce_entries,
    zero_map_into,
)
from .groebner import DEFAULT_DEGREE_CAP, kernel, minimal_generators
from .rings import QuotientRing


class FreeResolution:
    """F_0 <- F_1 <- ... with differentials d(l): F_l -> F_{l-1}.

    complete means the next kernel vanished, so the resolution is exact
    (not just through its computed length); minimal means no differential
    has a unit entry.
    """

    __slots__ = ("ring", "modules", "maps", "minimal", "complete")

    def __init__(self, ring, modules, maps, minimal=False, complete=False):
        self.ring = ring
        self.modules = list(modules)
        self.maps = list(maps)
        self.minimal = minimal
        self.complete = complete

    @property
    def length(self) -> int:
        return len(self.maps)

    def module(self, l: int) -> GradedFreeModule:
        if l < len(self.modules):
            return self.modules[l]
        return GradedFreeModule(self.ring, ())

    def d(self, l: int) -> GradedMap:
        """The differential F_l -> F_{l-1}, 1 <= l <= length."""
        return self.maps[l - 1]

    def twist_lists(self):
        return [list(F.twists) for F in self.modules]

    def is_complex(self) -> bool:
        for l in range(1, self.length):
            comp = self.maps[l - 1].compose(self.maps[l])
            for row in comp.matrix:
                for p in row:
                    if isinstance(self.ring, QuotientRing):
                        p = self.ring.normal_form(p)
                    if not p.is_zero():
                        return False
        return True

    def __repr__(self):
        ranks = " <- ".join(str(F.rank) for F in self.modules)
        return f"FreeResolution({ranks}; minimal={self.minimal})"


class BettiTable:
    """Graded Betti numbers beta_{ij} with finite support.

    minimal: counts come from a minimal resolution and are intrinsic.
    window: (lo, hi) degree range actually inspected (oracle tables);
    partial: the window may clip genuine entries.
    """

    def __init__(self, entries, minimal=True, window=None, partial=False):
        self.entries = {k: v for k, v in entries.items() if v}
        self.minimal = minimal
        self.window = window
        self.partial = partial

    @classmethod
    def from_resolution(cls, R: FreeResolution) -> "BettiTable":
        entries = {}
        for i, F in enumerate(R.modules):
            for j in F.twists:
                entries[(i, j)] = entries.get((i, j), 0) + 1
        return cls(entries, minimal=R.minimal)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def regularity(self):
        if not self.entries:
            return NEG_INF
        return max(j - i for i, j in self.entries)

    def max_index(self) -> int:
        return max((i for i, _ in self.entries), default=-1)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and other.entries == self.entries

    def __str__(self):
        if not self.entries:
            return "(empty Betti table)"
        imax = self.max_index()
        slopes = sorted({j - i for i, j in self.entries})
        lines = ["      " + "".join(f"{i:>6}" for i in range(imax + 1))]
        for s in slopes:
            row = [f"{s:>4}: "]
            for i in range(imax + 1):
                b = self.beta(i, i + s)
                row.append(f"{b if b else '.':>6}")
            lines.append("".join(row))
        return "\n".join(lines)

    def to_dict(self):
        return {
            "entries": [[i, j, b] for (i, j), b in sorted(self.entries.items())],
            "minimal": self.minimal,
        }


def betti_table(R: FreeResolution) -> BettiTable:
    return BettiTable.from_resolution(R)


# -- minimization -------------------------------------------------------------


def _unit_entry(mats, twist_lists, field):
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
    row m, and d_{l-1} sheds column k.
    """
    ring = R.ring
    field = R.modules[0].base.field if R.modules else None
    twist_lists = [list(F.twists) for F in R.modules]
    mats = [None] + [
        [list(row) for row in d.matrix] for d in R.maps
    ]  # mats[l][k][m], 1-based in l

    def nf(p):
        return ring.normal_form(p) if isinstance(ring, QuotientRing) else p

    while True:
        hit = _unit_entry(mats, twist_lists, field)
        if hit is None:
            break
        l, k, m = hit
        u = mats[l][k][m]
        uinv = field.inv(u.lc())
        old = mats[l]
        new = []
        for k2, row in enumerate(old):
            if k2 == k:
                continue
            w = old[k2][m]
            new_row = []
            for m2, p in enumerate(row):
                if m2 == m:
                    continue
                corr = (w * old[k][m2]).scale(uinv)
                new_row.append(nf(p - corr))
            new.append(new_row)
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


def minimal_presentation(M: ModulePresentation, cap=DEFAULT_DEGREE_CAP):
    """Equivalent presentation with a minimal cover and minimal relations."""
    ring = M.ring
    F = M.cover
    cols = [vec_reduce_entries(F, c) for c in M.relations.columns()]
    cols = [c for c in cols if not vec_is_zero(c)]
    while True:
        cols = minimal_generators(cols, F)
        if cols:
            d1 = map_from_columns(
                tuple(vec_degree(F, c) for c in cols), F, cols
            )
        else:
            d1 = zero_map_into(F)
        two_term = FreeResolution(ring, [F, d1.source], [d1])
        pruned = minimize(two_term)
        newF = pruned.modules[0]
        if newF.rank == F.rank:
            return ModulePresentation(pruned.maps[0])
        F = GradedFreeModule(ring, newF.twists)
        cols = [
            vec_reduce_entries(F, c) for c in pruned.maps[0].columns()
        ]
        cols = [c for c in cols if not vec_is_zero(c)]


# -- construction -------------------------------------------------------------


def _extend(current: GradedMap, degree_cap, minimal=True):
    """Next differential d: F -> source(current), or None at exactness."""
    K = kernel(current, cap=degree_cap)
    if minimal:
        K = minimal_generators(K, current.source)
    K = [k for k in K if not vec_is_zero(k)]
    if not K:
        return None
    twists = tuple(vec_degree(current.source, v) for v in K)
    return map_from_columns(twists, current.source, K)


def resolve_over_Q(
    M: ModulePresentation, minimal=True, degree_cap=DEFAULT_DEGREE_CAP
) -> FreeResolution:
    """Finite graded free resolution over the polynomial ring.

    With minimal set (the default) the presentation is minimized first and
    each syzygy step takes minimal generators, so the result is the minimal
    resolution; length <= number of variables by the syzygy theorem, which
    is asserted.
    """
    ring = M.ring
    if isinstance(ring, QuotientRing):
        raise ValueError("resolve_over_Q needs a presentation over Q")
    if minimal:
        M = minimal_presentation(M, cap=degree_cap)
    modules = [M.cover]
    maps = []
    current = M.relations
    limit = ring.nvars if minimal else ring.nvars + 1
    for l in range(1, limit + 2):
        if current.source.rank == 0:
            break
        if l > limit:
            raise InternalConsistencyError(
                "resolution over Q exceeded the syzygy-theorem length bound"
            )
        modules.append(current.source)
        maps.append(current)
        nxt = _extend(current, degree_cap, minimal=minimal)
        if nxt is None:
            break
        current = nxt
    return FreeResolution(ring, modules, maps, minimal=minimal, complete=True)


def resolve_over_A(
    M: ModulePresentation, cap: int, degree_cap=DEFAULT_DEGREE_CAP
) -> FreeResolution:
    """Minimal free resolution over A = Q/(z), exact through homological
    degree cap (modules F_0..F_cap computed unless it terminates early)."""
    ring = M.ring
    M = minimal_presentation(M, cap=degree_cap)
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
        nxt = _extend(current, degree_cap, minimal=True)
        if nxt is None:
            complete = True
            break
        current = nxt
    return FreeResolution(ring, modules, maps, minimal=True, complete=complete)
