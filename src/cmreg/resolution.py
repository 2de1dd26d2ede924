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
from .freemod import NEG_INF, GradedFreeModule, GradedMap, ModulePresentation
from .groebner import DEFAULT_DEGREE_CAP, kernel, minimal_generators


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

    def repeats(self, k: int):
        """s > 0 when d(k) == d(k-2).shift(s) and d(k+1) == d(k-1).shift(s);
        None for k < 3, past the computed length and where F_k has rank 0."""
        if k < 3 or k + 1 > self.length or not self.modules[k].rank:
            return None
        s = self.modules[k].twists[0] - self.modules[k - 2].twists[0]
        same = all(self.d(l) == self.d(l - 2).shift(s) for l in (k, k + 1))
        return s if s > 0 and same else None

    def is_complex_at(self, l: int) -> bool:
        """d(l) o d(l+1) = 0 over the ring, 1 <= l < length."""
        comp = self.d(l).compose(self.d(l + 1))
        return all(self.ring.normal_form(p).is_zero() for row in comp.matrix for p in row)

    def is_complex(self) -> bool:
        return all(self.is_complex_at(l) for l in range(1, self.length))

    def __repr__(self):
        ranks = " <- ".join(str(F.rank) for F in self.modules)
        return f"FreeResolution({ranks}; minimal={self.minimal})"


class BettiTable:
    """Graded Betti numbers beta_{ij} with finite support.

    minimal: counts come from a minimal resolution and are intrinsic.
    window: (lo, hi), oracle tables only: every beta_ij with lo <= j <= hi
    is in the table, and none lies below lo.
    partial: entries above hi may be missing.  When False, beta_ij = 0 for
    every j > hi: the oracle proved it by a regularity certificate.
    """

    def __init__(self, entries, minimal=True, window=None, partial=False):
        self.entries = {k: v for k, v in entries.items() if v}
        self.minimal = minimal
        self.window = window
        self.partial = partial

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
    entries = {}
    for i, F in enumerate(R.modules):
        for j in F.twists:
            entries[(i, j)] = entries.get((i, j), 0) + 1
    return BettiTable(entries, minimal=R.minimal)


# -- minimization -------------------------------------------------------------


def _unit_entry(mat, source_twists, target_twists):
    """First (k, m) with a nonzero constant entry of one differential,
    scanning k, m ascending; None when every entry has positive degree."""
    for k, row in enumerate(mat):
        for m, p in enumerate(row):
            if not p.is_zero() and source_twists[m] == target_twists[k]:
                return (k, m)
    return None


def minimize(R: FreeResolution) -> FreeResolution:
    """Cancel unit entries (Gaussian elimination on the complex) until all
    differential entries lie in the irrelevant ideal.

    A unit u at row k, column m of d_l splits off an exact pair: d_l sheds
    row k and column m with the correction B - w u^{-1} v, d_{l+1} sheds
    row m, and d_{l-1} sheds column k.  A row whose entry w in column m is
    zero needs no correction and is carried over as it is.  No cancellation
    at level l puts a unit into a lower level, so one pass up the levels,
    clearing each in turn, is enough.
    """
    ring = R.ring
    field = R.modules[0].base.field if R.modules else None
    twist_lists = [list(F.twists) for F in R.modules]
    mats = [None] + [[list(row) for row in d.matrix] for d in R.maps]  # 1-based in l

    for l in range(1, len(mats)):
        while hit := _unit_entry(mats[l], twist_lists[l], twist_lists[l - 1]):
            k, m = hit
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
    """Equivalent presentation with a minimal cover and minimal relations.

    Cancelling the unit entries of F_0 <- F_1 first leaves every nonzero
    entry of positive degree, so the cover is minimal; one Nakayama pass
    then keeps a subset of the relation columns, which has no unit entry
    either, so the cover stays minimal.
    """
    F1 = M.relations.source
    pruned = minimize(FreeResolution(M.ring, [M.cover, F1], [M.relations]))
    return ModulePresentation(
        minimal_generators(pruned.maps[0].columns(), pruned.modules[0])
    )


# -- construction -------------------------------------------------------------


def _resolve(M: ModulePresentation, cap, minimal, degree_cap) -> FreeResolution:
    """F_0..F_cap of a resolution of M, complete when some F_l vanishes
    first.  d_1 is M's relations; each later d_l takes the minimal
    generators of ker d_{l-1}, so an empty kernel gives a map with no
    columns and ends the loop."""
    modules = [M.cover]
    maps = []
    d = M.relations
    for l in range(1, cap + 1):
        if d.source.rank == 0:
            return FreeResolution(M.ring, modules, maps, minimal, complete=True)
        modules.append(d.source)
        maps.append(d)
        if l < cap:
            d = minimal_generators(kernel(d, cap=degree_cap), d.source)
    return FreeResolution(M.ring, modules, maps, minimal)


def resolve_over_Q(
    M: ModulePresentation, minimal=True, degree_cap=DEFAULT_DEGREE_CAP
) -> FreeResolution:
    """Finite graded free resolution over the polynomial ring.

    Every syzygy step takes minimal kernel generators; minimal only decides
    whether the presentation is minimized first.  Minimized (the default),
    the result is the minimal resolution, of length <= nvars by the syzygy
    theorem.  Taken as given, unit entries and all, the presentation starts
    a resolution of length <= nvars + 1, since ker d_1 has a minimal one of
    length <= nvars - 1; one variable reaches that: F_0 <- F_1 <- ker d_1.
    Both bounds are asserted.
    """
    ring = M.ring
    if ring.relations:
        raise ValueError("resolve_over_Q needs a presentation over Q")
    if minimal:
        M = minimal_presentation(M)
    limit = ring.nvars if minimal else ring.nvars + 1
    R = _resolve(M, limit + 1, minimal, degree_cap)
    if not R.complete:
        raise InternalConsistencyError(
            "resolution over Q exceeded the syzygy-theorem length bound"
        )
    return R


def resolve_over_A(
    M: ModulePresentation, cap: int, degree_cap=DEFAULT_DEGREE_CAP
) -> FreeResolution:
    """Minimal free resolution over A = Q/(z), exact through homological
    degree cap (modules F_0..F_cap computed unless it terminates early)."""
    M = minimal_presentation(M)
    return _resolve(M, cap, True, degree_cap)
