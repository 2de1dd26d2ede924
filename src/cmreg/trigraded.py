"""Twist calculus for Z^3-graded free data over S = Q[Y_1..Y_b, Z_1..Z_c].

deg(Y_j) = (0,1,h_j) and deg(Z_k) = (1,0,g_k), with h and g sorted
descending.  A free S-module summand S(-b1, -b2, -a) contributes to the
(i, n, *) component one Q-twist a + sum(u_j h_j) + sum(v_k g_k) for every
composition u of n - b2 into b parts and v of i - b1 into c parts, and
nothing when i < b1 or n < b2.  Components are computed as histograms
{twist: multiplicity}, built by dynamic programming over the weights
rather than by listing compositions; `compositions` remains the
enumeration that defines them.  The constants

    c_l = max over level-l generators of (a - g1*b1 - h1*b2)
    e   = max over levels of (c_l - l)

bound the maximal twist of every component by g1*i + h1*n + c_l, hence the
component regularity of the resolved module by g1*i + h1*n + e.

This module consumes resolution DATA (generator multidegrees per level),
not actual modules; connecting its lines to measured regularity tables is
the harness's job.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb
from types import MappingProxyType

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
    """Generator multidegrees (b1, b2, a) per homological level 0..d'."""

    __slots__ = ("levels",)

    def __init__(self, levels, spec: TrigradedRingSpec = None):
        self.levels = {}
        for l, gens in dict(levels).items():
            l = int(l)
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


def bound_constants(spec: TrigradedRingSpec, data: TrigradedFreeData):
    """({l: c_l} over non-empty levels, e = max(c_l - l))."""
    if not data.level(0):
        raise ValueError("data must have at least one generator at level 0")
    cs = {}
    for l, gens in sorted(data.levels.items()):
        cs[l] = max(a - spec.g1 * b1 - spec.h1 * b2 for b1, b2, a in gens)
    e = max(cl - l for l, cl in cs.items())
    return cs, e


def compositions(total, parts):
    """Weak compositions of total into parts non-negative integers, in
    colexicographic order; a single empty composition when parts = 0 and
    total = 0, and none for a negative total."""
    return sorted(weak_compositions(total, parts), key=lambda t: t[::-1])


@lru_cache(maxsize=1024)
def _weight_sums(weights, total):
    """Read-only {w.u: count} over the weak compositions u of total into
    len(weights) parts.  Adding a part of weight w to the table gives
    new[m] = old[m] + shift(new[m-1], w): the new part is 0, or one more
    than in a composition of m - 1."""
    table = [{0: 1}] + [{} for _ in range(total)]
    for w in weights:
        for m in range(1, total + 1):
            new = Counter(table[m])
            for s, count in table[m - 1].items():
                new[s + w] += count
            table[m] = new
    return MappingProxyType(dict(table[total]))


def twist_histogram(spec: TrigradedRingSpec, data: TrigradedFreeData, l, i, n):
    """Counter {twist: multiplicity} of the (i, n, *) component of F_l."""
    hist = Counter()
    for b1, b2, a in data.level(l):
        if i < b1 or n < b2:
            continue
        gsums = _weight_sums(spec.g, i - b1)
        for hu, hcount in _weight_sums(spec.h, n - b2).items():
            for gv, gcount in gsums.items():
                hist[a + hu + gv] += hcount * gcount
    return hist


def component_twists(spec: TrigradedRingSpec, data: TrigradedFreeData, l, i, n):
    """Multiset (sorted list) of Q-twists in the (i, n, *) component of F_l."""
    return sorted(twist_histogram(spec, data, l, i, n).elements())


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


def max_twist_bound_check(spec, data, l, i, n) -> bool:
    """max component twist <= g1*i + h1*n + c_l; vacuously true when the
    component (or the level) is empty."""
    hist = twist_histogram(spec, data, l, i, n)
    if not hist:
        return True
    cl = max(a - spec.g1 * b1 - spec.h1 * b2 for b1, b2, a in data.level(l))
    return max(hist) <= spec.g1 * i + spec.h1 * n + cl


def free_component_regularity(spec, data, i, n):
    """For free data concentrated in level 0 the component is a free
    Q-module, so its regularity is the maximal twist (NEG_INF if empty)."""
    hist = twist_histogram(spec, data, 0, i, n)
    return max(hist) if hist else NEG_INF
