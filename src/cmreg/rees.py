"""Ideal powers acting on modules, the reduction test, d(J), and a
certified upper bound for the reduction-degree invariant rho_N(I).

rho_N(I) is the least d(J) over homogeneous ideals J <= I with
I^{n+1}N = J I^n N for some n.  Finding true minimal reductions needs
genericity arguments, so rho_upper only certifies an upper bound: it tries
the zero ideal, the ideals J_t generated by the minimal generators of I of
degree <= t (one per generator degree t, the top one being I) and any
explicit candidates, keeps those whose reduction property it can witness on
the checked range, and reports the smallest d(J) among them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import ReductionPreconditionError
from .ext_tor import to_presentation
from .freemod import GradedFreeModule, ModulePresentation, quotient_by, scaled_basis
from .groebner import (
    DEFAULT_DEGREE_CAP,
    minimal_generators,
    submodule_contains,
    submodule_gb,
)


class IdealData:
    """A homogeneous ideal of A by minimal generators, degrees descending."""

    __slots__ = ("ring", "generators", "degrees", "improper")

    def __init__(self, ring, generators):
        self.ring = ring
        F = GradedFreeModule(ring, (0,))
        self.generators = minimal_generators([(g,) for g in generators], F).matrix[0]
        self.degrees = tuple(g.degree for g in self.generators)
        # A is graded with A_0 = K and (z) has no units, so 1 lies in I
        # iff I_0 != 0 iff some minimal generator is a nonzero constant
        self.improper = 0 in self.degrees

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def d1(self):
        """d(J), the largest minimal-generator degree; 0 for the unit ideal
        (generated by 1) and for the zero ideal (no generators)."""
        return self.degrees[0] if self.degrees else 0

    def __repr__(self):
        if self.improper:
            return "Ideal(unit)"
        return f"Ideal(degrees={list(self.degrees)})"


def unit_ideal(ring) -> IdealData:
    return IdealData(ring, [ring.base.one])


def _power_products(I: IdealData, n: int):
    """All degree-n products of the generators, nonzero normal forms only."""
    ring = I.ring
    if n == 0:
        return [ring.base.one]
    out = []
    for pick in combinations_with_replacement(range(len(I.generators)), n):
        p = I.generators[pick[0]]
        for t in pick[1:]:
            p = p * I.generators[t]
        p = ring.normal_form(p)
        if not p.is_zero():
            out.append(p)
    return out


def power_module(
    I: IdealData, n: int, N: ModulePresentation, degree_cap=DEFAULT_DEGREE_CAP
) -> ModulePresentation:
    """I^n N as a graded module presentation (I^0 N = N)."""
    if n == 0 or I.improper:
        return N
    F = N.cover
    psi = N.relations.columns()
    prods = _power_products(I, n)
    gens = scaled_basis(F, prods)
    sub = to_presentation(F, gens, psi, degree_cap)
    return sub.presentation


def quotient_module(
    N: ModulePresentation, I: IdealData, n: int
) -> ModulePresentation:
    """N / I^n N (the zero module when n = 0)."""
    if I.is_zero and n > 0:
        return N
    return quotient_by(N, _power_products(I, n), N.ring)


def is_reduction(
    J: IdealData,
    I: IdealData,
    N: ModulePresentation,
    n_max: int,
    degree_cap=DEFAULT_DEGREE_CAP,
) -> int | None:
    """Least n <= n_max with I^{n+1}N = J I^n N, or None when there is none
    below n_max (inconclusive, not a disproof).

    J must lie in I.  A J whose minimal generators are among I's does by
    construction (the zero ideal, each J_t); any other is checked against a
    Groebner basis of I.  A J that also has all of I's generators is I and
    certifies at n = 0.  Otherwise J <= I gives J I^n N <= I^{n+1} N, so
    one containment decides each n.
    """
    own = set(I.generators)
    if not own.issuperset(J.generators):
        F1 = GradedFreeModule(I.ring, (0,))
        gbI = submodule_gb([(g,) for g in I.generators], F1, cap=degree_cap)
        if not all(submodule_contains(gbI, (g,)) for g in J.generators):
            raise ReductionPreconditionError("candidate ideal is not contained in I")
    if own.issubset(J.generators):
        return 0
    F = N.cover
    psi = N.relations.columns()
    prods = _power_products(I, 0)
    for n in range(n_max + 1):
        if n == 0 or not J.is_zero:  # J = 0 spans only psi, at every n
            jin = [yj * p for yj in J.generators for p in prods]
            gb = submodule_gb(scaled_basis(F, jin) + psi, F, cap=degree_cap)
        prods = _power_products(I, n + 1)
        if all(submodule_contains(gb, v) for v in scaled_basis(F, prods)):
            return n
    return None


def rho_upper(
    I: IdealData,
    N: ModulePresentation,
    candidates=(),
    n_max: int = 3,
    degree_cap=DEFAULT_DEGREE_CAP,
) -> tuple[IdealData, int]:
    """The candidate N-reduction J of least d(J) and its exponent n, so
    I^{n+1}N = J I^n N and J.d1() is a certified upper bound for rho_N(I).

    The candidates are the zero ideal, J_t = (the minimal generators of I
    of degree <= t) for each generator degree t of I, and the caller's
    candidates; the top J_t is I, which certifies at n = 0, so n_max must
    be >= 0.  A subset of the generators of degree <= t that is a reduction
    at n lies in J_t, which then is one at n too (J I^n N <= J_t I^n N <=
    I^{n+1} N), and d(J_t) = t as a subset of a minimal generating set is
    minimal, so no subset gives a smaller bound.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ring = I.ring
    pool = [IdealData(ring, [])]
    for t in sorted(set(I.degrees))[:-1]:
        pool.append(IdealData(ring, [g for g in I.generators if g.degree <= t]))
    pool.extend(candidates)
    pool.append(I)
    pool.sort(key=lambda J: (J.d1(), len(J.generators)))
    for J in pool:  # least d(J) first, and I itself certifies at n = 0
        n = is_reduction(J, I, N, n_max, degree_cap)
        if n is not None:
            return J, n
