"""Twist calculus for Z^3-graded free data over S = Q[Y_1..Y_b, Z_1..Z_c].

deg(Y_j) = (0,1,h_j) and deg(Z_k) = (1,0,g_k), with h and g sorted
descending.  A free S-module summand S(-b1, -b2, -a) contributes to the
(i, n, *) component one Q-twist a + sum(u_j h_j) + sum(v_k g_k) for every
composition u of n - b2 into b parts and v of i - b1 into c parts, and
nothing when i < b1 or n < b2; `component_twists` lists them so.  As h
and g descend, h.u peaks at h1*(n - b2) and g.v at g1*(i - b1), so the
top twist of a component has a closed form.  With the constants

    c_l = max over level-l generators of (a - g1*b1 - h1*b2)
    e   = max over levels of (c_l - l)

it is at most g1*i + h1*n + c_l; hence the component regularity of the
resolved module is at most g1*i + h1*n + e.

The checks of that line do not use the closed form.  With top(w, t) the
largest w.u over the weak compositions u of t (`_top_weight_sums` takes
the weights one at a time, in any order), the top twist at (i, n) is the
max over generators of a + top(h, n - b2) + top(g, i - b1), so a
generator's excess over the line separates:

    (a - g1*b1 - h1*b2) + [top(h, t) - h1*t] + [top(g, s) - g1*s]

with t = n - b2 and s = i - b1.  `_line_holds` tests a window of cells with
one comparison per generator, taking each bracket's max over the t and s
the window reaches: `max_twist_bound_check` on one cell, `grid_bound_check`
on the grid 0..imax x 0..nmax.

This module consumes resolution DATA (generator multidegrees per level),
not actual modules; connecting its lines to measured regularity tables is
the harness's job.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .freemod import NEG_INF
from .rings import weak_compositions


def _integer(x):
    """x as an int; ValueError unless it is an int or an integral float."""
    if type(x) is int or type(x) is float and x.is_integer():
        return int(x)
    raise ValueError(f"expected an integer, got {x!r}")


class TrigradedRingSpec:
    """Variable counts (d, b, c) and twist weights h (len b), g (len c),
    all integers; both weight lists are sorted descending on construction."""

    __slots__ = ("d", "b", "c", "h", "g")

    def __init__(self, d, b, c, h, g):
        d, b, c = _integer(d), _integer(b), _integer(c)
        h, g = [_integer(x) for x in h], [_integer(x) for x in g]
        if len(h) != b or len(g) != c:
            raise ValueError("weight list lengths must match b and c")
        if d < 0:
            raise ValueError("d must be non-negative")
        self.d = d
        self.b = b
        self.c = c
        self.h = tuple(sorted(h, reverse=True))
        self.g = tuple(sorted(g, reverse=True))

    @property
    def h1(self):
        return self.h[0] if self.h else 0

    @property
    def g1(self):
        return self.g[0] if self.g else 0

    @property
    def homological_range(self):
        """d' = d + b + c, the largest level the data may populate."""
        return self.d + self.b + self.c


class TrigradedFreeData:
    """Generator multidegrees (b1, b2, a) per homological level 0..d'.
    Level keys are integers or strings of ASCII digits, one key per level."""

    __slots__ = ("levels",)

    def __init__(self, levels, spec: TrigradedRingSpec = None):
        self.levels = {}
        seen = set()
        for key, gens in dict(levels).items():
            if isinstance(key, str) and not (key.isascii() and key.isdigit()):
                raise ValueError(f"level key {key!r} is not a string of ASCII digits")
            l = int(key) if isinstance(key, str) else _integer(key)
            if l in seen:
                raise ValueError(f"two keys name level {l}")
            seen.add(l)
            if l < 0:
                raise ValueError("negative homological level")
            if spec is not None and l > spec.homological_range:
                raise ValueError(
                    f"level {l} exceeds d' = {spec.homological_range}"
                )
            gens = [tuple(_integer(x) for x in gtuple) for gtuple in gens]
            for gtuple in gens:
                if len(gtuple) != 3:
                    raise ValueError("multidegrees are (b1, b2, a) triples")
            if gens:
                self.levels[l] = gens

    def level(self, l):
        return self.levels.get(l, [])


def _level_constant(spec, gens):
    """c_l = max(a - g1*b1 - h1*b2) over the generators; 0 when there are none."""
    return max((a - spec.g1 * b1 - spec.h1 * b2 for b1, b2, a in gens), default=0)


def bound_constants(spec: TrigradedRingSpec, data: TrigradedFreeData):
    """({l: c_l} over non-empty levels, e = max(c_l - l))."""
    if not data.level(0):
        raise ValueError("data must have at least one generator at level 0")
    cs = {l: _level_constant(spec, gens) for l, gens in sorted(data.levels.items())}
    e = max(cl - l for l, cl in cs.items())
    return cs, e


def compositions(total, parts):
    """Weak compositions of total into parts non-negative integers, in
    colexicographic order; a single empty composition when parts = 0 and
    total = 0, and none for a negative total."""
    return sorted(weak_compositions(total, parts), key=lambda t: t[::-1])


@lru_cache(maxsize=1024)
def _weight_sums(weights, total):
    """(w.u for each weak composition u of total into len(weights) parts),
    in `rings.weak_compositions` order."""
    return tuple(
        sum(w * x for w, x in zip(weights, u))
        for u in weak_compositions(total, len(weights))
    )


@lru_cache(maxsize=1024)
def _top_weight_sums(weights, tmax):
    """(top(weights, t) for t in 0..tmax): the largest w.u over the weak
    compositions u of t into len(weights) parts, NEG_INF when there is none.
    Weights come one at a time, in any order, and no composition is listed:
    one of t gives a new part of weight w the value 0, or is one of t - 1
    with that part raised by 1, so top'(t) = max(top(t), top'(t - 1) + w)."""
    tops = [0] + [NEG_INF] * tmax
    for w in weights:
        for t in range(1, tmax + 1):
            tops[t] = max(tops[t], tops[t - 1] + w)
    return tuple(tops)


def component_twists(spec: TrigradedRingSpec, data: TrigradedFreeData, l, i, n):
    """Multiset (sorted list) of Q-twists in the (i, n, *) component of F_l."""
    out = []
    for b1, b2, a in data.level(l):
        gsums = _weight_sums(spec.g, i - b1)
        for hu in _weight_sums(spec.h, n - b2):
            out.extend(a + hu + gv for gv in gsums)
    return sorted(out)


def component_twist_count(spec, b1, b2, i, n):
    """Stars-and-bars cardinality for one generator: the number of (u, v)
    composition pairs contributing at (i, n)."""
    if i < b1 or n < b2:
        return 0
    return comb(n - b2 + spec.b - 1, spec.b - 1) * comb(
        i - b1 + spec.c - 1, spec.c - 1
    )


def component_bound(spec: TrigradedRingSpec, data: TrigradedFreeData, i, n):
    """The bound line g1*i + h1*n + e at the grid point (i, n)."""
    _, e = bound_constants(spec, data)
    return spec.g1 * i + spec.h1 * n + e


def _top_twist(spec, gens, i, n):
    """Top twist of the (i, n, *) component of the free module on gens:
    max of a + h1*(n - b2) + g1*(i - b1) over the generators with b1 <= i
    and b2 <= n (n = b2 when b = 0, i = b1 when c = 0); NEG_INF if empty."""
    return max(
        (a + spec.h1 * (n - b2) + spec.g1 * (i - b1) for b1, b2, a in gens
         if b1 <= i and b2 <= n and (spec.b or n == b2) and (spec.c or i == b1)),
        default=NEG_INF,
    )


@lru_cache(maxsize=4096)
def _window_excess(weights, w1, lo, hi):
    """max of top(weights, t) - w1*t over lo <= t <= hi; NEG_INF if none."""
    if hi < lo:
        return NEG_INF
    tops = _top_weight_sums(weights, hi)
    return max(tops[t] - w1 * t for t in range(lo, hi + 1))


def _line_holds(spec, gens, i0, i1, n0, n1) -> bool:
    """Whether the free module on gens stays at or under g1*i + h1*n + c_l
    in every cell i0 <= i <= i1, n0 <= n <= n1, with one comparison per
    generator: its excess over the line separates (module docstring), and
    t = n - b2, s = i - b1 each range over a window, empty for a generator
    outside the cells."""
    g1, h1, cl = spec.g1, spec.h1, _level_constant(spec, gens)
    return all(
        a - g1 * b1 - h1 * b2
        + _window_excess(spec.h, h1, max(0, n0 - b2), n1 - b2)
        + _window_excess(spec.g, g1, max(0, i0 - b1), i1 - b1)
        <= cl
        for b1, b2, a in gens
    )


def max_twist_bound_check(spec, data, l, i, n) -> bool:
    """max component twist <= g1*i + h1*n + c_l at the cell (i, n), the
    1x1 window of `_line_holds`; vacuously true when the component (or the
    level, whose c_l then reads 0) is empty."""
    return _line_holds(spec, data.level(l), i, i, n, n)


def grid_bound_check(spec, data, imax, nmax) -> bool:
    """`max_twist_bound_check` at every level and every 0 <= i <= imax,
    0 <= n <= nmax: `_line_holds` on the whole grid, level by level."""
    return all(
        _line_holds(spec, gens, 0, imax, 0, nmax) for gens in data.levels.values()
    )


def free_component_regularity(spec, data, i, n):
    """For free data concentrated in level 0 the component is a free
    Q-module, so its regularity is the maximal twist (NEG_INF if empty)."""
    return _top_twist(spec, data.level(0), i, n)
