"""Ideal powers acting on modules, reduction certificates, d(J), and a
certified upper bound for the reduction-degree invariant rho_N(I).

rho_N(I) is the least d(J) over homogeneous ideals J <= I with
I^{n+1}N = J I^n N for some n.  Finding true minimal reductions needs
genericity arguments, so rho_upper only certifies an upper bound: it tries
candidate ideals (by default all subsets of the minimal generators of I),
keeps those whose reduction property it can witness on the checked range,
and reports the smallest d(J) among them.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .errors import ReductionPreconditionError
from .ext_tor import to_presentation
from .freemod import (
    GradedFreeModule,
    ModulePresentation,
    map_from_columns,
    scaled_basis,
    vec_degree,
    vec_is_zero,
)
from .groebner import (
    DEFAULT_DEGREE_CAP,
    minimal_generators,
    submodule_contains,
    submodule_equal,
    submodule_gb,
)


class IdealData:
    """A homogeneous ideal of A by minimal generators, degrees descending."""

    __slots__ = ("ring", "generators", "degrees", "improper")

    def __init__(self, ring, generators):
        self.ring = ring
        gens = [ring.normal_form(g) for g in generators]
        gens = [g for g in gens if not g.is_zero()]
        F = GradedFreeModule(ring, (0,))
        mins = minimal_generators([(g,) for g in gens], F)
        self.generators = tuple(v[0] for v in mins)
        self.degrees = tuple(g.degree for g in self.generators)
        # A is graded with A_0 = K and (z) has no units, so 1 lies in I
        # iff I_0 != 0 iff some minimal generator is a nonzero constant
        self.improper = 0 in self.degrees

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def d1(self):
        """Largest minimal-generator degree (the d(J) value lives here)."""
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
    F = N.cover
    cols = [c for c in N.relations.columns() if not vec_is_zero(c)]
    if I.is_zero and n > 0:
        return N
    prods = _power_products(I, n)
    cols = cols + scaled_basis(F, prods)
    twists = tuple(vec_degree(F, c) for c in cols)
    return ModulePresentation(map_from_columns(twists, F, cols))


class ReductionCertificate:
    """Witness that I^{n0+1} N = J I^{n0} N, or the absence of one below
    n_max (inconclusive, not a disproof)."""

    def __init__(self, ideal: IdealData, witness, n_max: int):
        self.ideal = ideal
        self.witness = witness  # int or None
        self.n_max = n_max

    @property
    def found(self) -> bool:
        return self.witness is not None


def is_reduction(
    J: IdealData,
    I: IdealData,
    N: ModulePresentation,
    n_max: int,
    degree_cap=DEFAULT_DEGREE_CAP,
) -> ReductionCertificate:
    """Smallest n <= n_max with I^{n+1}N = J I^n N, as a certificate."""
    ring = I.ring
    F1 = GradedFreeModule(ring, (0,))
    if I.generators:
        gbI = submodule_gb([(g,) for g in I.generators], F1, cap=degree_cap)
        for g in J.generators:
            if not submodule_contains(gbI, (g,)):
                raise ReductionPreconditionError(
                    "candidate ideal is not contained in I"
                )
    elif J.generators:
        raise ReductionPreconditionError("candidate ideal is not contained in I")
    F = N.cover
    psi = [c for c in N.relations.columns() if not vec_is_zero(c)]
    for n in range(n_max + 1):
        lhs = scaled_basis(F, _power_products(I, n + 1)) + psi
        jin = []
        for yj in J.generators:
            for p in _power_products(I, n):
                jin.append(yj * p)
        rhs = scaled_basis(F, jin) + psi
        if submodule_equal(lhs, rhs, F, cap=degree_cap):
            return ReductionCertificate(J, n, n_max)
    return ReductionCertificate(J, None, n_max)


def d_of(J: IdealData) -> int:
    """Largest minimal-generator degree; 0 for the unit and zero ideals."""
    if J.improper or J.is_zero:
        return 0
    return J.d1()


class RhoBound:
    """Certified upper bound for rho_N(I); never an exact claim."""

    label = "upper bound"

    def __init__(
        self,
        value: int,
        witness: IdealData,
        certificate: ReductionCertificate,
        truncated: bool,
    ):
        self.value = value
        self.witness = witness
        self.certificate = certificate
        self.truncated = truncated


SUBSET_ENUM_LIMIT = 8


def rho_upper(
    I: IdealData,
    N: ModulePresentation,
    candidates=(),
    n_max: int = 3,
    degree_cap=DEFAULT_DEGREE_CAP,
) -> RhoBound:
    """min d(J) over candidate ideals certified as N-reductions of I.

    Default candidates are all subsets of the minimal generators of I
    (skipped, with the truncated flag set, when I has more than
    SUBSET_ENUM_LIMIT generators); I itself is always included and always
    succeeds at n = 0, so n_max must be >= 0.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ring = I.ring
    pool = []
    truncated = False
    b = len(I.generators)
    if b <= SUBSET_ENUM_LIMIT:
        for size in range(b + 1):
            for pick in combinations(range(b), size):
                pool.append(IdealData(ring, [I.generators[t] for t in pick]))
    else:
        truncated = True
    pool.extend(candidates)
    pool.append(I)
    pool.sort(key=lambda J: (d_of(J), len(J.generators)))
    best = None
    for J in pool:
        if best is not None and d_of(J) >= best.value:
            break
        cert = is_reduction(J, I, N, n_max, degree_cap)
        if cert.found:
            best = RhoBound(d_of(J), J, cert, truncated)
    return best
