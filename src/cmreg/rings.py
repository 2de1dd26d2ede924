"""Polynomial rings Q = K[x1..xd], homogeneous polynomials, and graded
quotients A = Q/(z1..zc) by a homogeneous regular sequence.

Monomials are dense exponent tuples (every variable has degree 1).  A
polynomial is a sparse dict {exponent tuple: nonzero field element} together
with its declared total degree; the zero polynomial has degree None and is
accepted wherever any degree is expected.
"""

from __future__ import annotations

from itertools import combinations

from .errors import HomogeneityError
from .fields import GF32003


def monomial_degree(exps) -> int:
    return sum(exps)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _key_degrevlex(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def weak_compositions(total: int, parts: int):
    """All tuples of parts non-negative integers summing to total, unsorted:
    stars and bars, one tuple per choice of parts - 1 bars among
    total + parts - 1 slots.  Empty for a negative total."""
    if total < 0 or parts == 0:
        return [()] if total == parts == 0 else []
    end = (total + parts - 1,)
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))
        for bars in combinations(range(total + parts - 1), parts - 1)
    ]


class PolyRing:
    """Standard graded polynomial ring over an exact field, with the
    degrevlex monomial order.

    Q is also the quotient of Q by the empty sequence, so it answers the
    QuotientRing interface: no relations, base is Q itself, every
    polynomial is its own normal form and every monomial is standard.
    """

    relations = ()

    def __init__(self, nvars: int, field=GF32003):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = nvars
        self.field = field
        self.order_key = _key_degrevlex
        self.base = self

    # -- element constructors -------------------------------------------

    @property
    def zero(self) -> GradedPoly:
        return GradedPoly(self, {}, None)

    @property
    def one(self) -> GradedPoly:
        return GradedPoly(self, {(0,) * self.nvars: self.field.one}, 0)

    def constant(self, c) -> GradedPoly:
        c = self.field(c)
        if c == self.field.zero:
            return self.zero
        return GradedPoly(self, {(0,) * self.nvars: c}, 0)

    def variable(self, i: int) -> GradedPoly:
        exps = [0] * self.nvars
        exps[i] = 1
        return GradedPoly(self, {tuple(exps): self.field.one}, 1)

    def monomial(self, exps, coeff=1) -> GradedPoly:
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps}")
        c = self.field(coeff)
        if c == self.field.zero:
            return self.zero
        return GradedPoly(self, {exps: c}, monomial_degree(exps))

    def from_terms(self, terms) -> GradedPoly:
        """Build a polynomial from {exps: coeff}, dropping zeros and
        checking homogeneity."""
        clean = {}
        for exps, c in terms.items():
            c = self.field(c)
            if c == self.field.zero:
                continue
            clean[tuple(exps)] = c
        if not clean:
            return self.zero
        degs = {monomial_degree(e) for e in clean}
        if len(degs) > 1:
            raise HomogeneityError(f"mixed total degrees {sorted(degs)}")
        return GradedPoly(self, clean, degs.pop())

    def poly(self, text: str) -> GradedPoly:
        return parse_poly(self, text)

    # -- monomial enumeration -------------------------------------------

    def monomials_of_degree(self, s: int):
        """All exponent tuples of total degree s, sorted descending in the
        ring order (deterministic basis for graded pieces)."""
        monos = weak_compositions(s, self.nvars)
        return sorted(monos, key=self.order_key, reverse=True)

    std_monomials_of_degree = monomials_of_degree

    def normal_form(self, p: GradedPoly) -> GradedPoly:
        return p

    # -- misc -------------------------------------------------------------

    def var_name(self, i: int) -> str:
        return f"x{i + 1}"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.nvars == self.nvars
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.nvars, self.field))

    def __repr__(self):
        return f"{self.field}[x1..x{self.nvars}](degrevlex)"


class GradedPoly:
    """Homogeneous polynomial; immutable once built."""

    __slots__ = ("ring", "terms", "degree", "_lm")

    def __init__(self, ring, terms, degree):
        self.ring = ring
        self.terms = terms
        self.degree = degree
        self._lm = None

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self):
        """Leading monomial (exponent tuple) in the ring order."""
        if self._lm is None and self.terms:
            self._lm = max(self.terms, key=self.ring.order_key)
        return self._lm

    def lc(self):
        return self.terms[self.lm()]

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise HomogeneityError(
                f"adding degrees {self.degree} and {other.degree}"
            )
        F = self.ring.field
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(res.get(e, F.zero), c)
            if s == F.zero:
                res.pop(e, None)
            else:
                res[e] = s
        if not res:
            return self.ring.zero
        return GradedPoly(self.ring, res, self.degree)

    def __neg__(self):
        F = self.ring.field
        return GradedPoly(
            self.ring, {e: F.neg(c) for e, c in self.terms.items()}, self.degree
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return self.ring.zero
        F = self.ring.field
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                s = F.add(res.get(e, F.zero), F.mul(c1, c2))
                if s == F.zero:
                    res.pop(e, None)
                else:
                    res[e] = s
        if not res:
            return self.ring.zero
        return GradedPoly(self.ring, res, self.degree + other.degree)

    def scale(self, c):
        F = self.ring.field
        c = F(c)
        if c == F.zero or self.is_zero():
            return self.ring.zero
        return GradedPoly(
            self.ring, {e: F.mul(c, x) for e, x in self.terms.items()}, self.degree
        )

    def mul_term(self, exps, c):
        """Multiply by a single monomial term c * x^exps."""
        F = self.ring.field
        c = F(c)
        if c == F.zero or self.is_zero():
            return self.ring.zero
        return GradedPoly(
            self.ring,
            {monomial_mul(e, exps): F.mul(c, x) for e, x in self.terms.items()},
            self.degree + monomial_degree(exps),
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedPoly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        """Canonical text, read back by parse_poly: terms descending in the
        ring order, and GF(p) representatives above p/2 signed negative."""
        if self.is_zero():
            return "0"
        ring = self.ring
        p_char = ring.field.characteristic
        pieces = []
        for exps in sorted(self.terms, key=ring.order_key, reverse=True):
            c = self.terms[exps]
            neg = c < 0 if p_char == 0 else c > p_char // 2
            mag = ring.field.neg(c) if neg else c
            factors = [
                f"{ring.var_name(i)}^{e}" if e > 1 else ring.var_name(i)
                for i, e in enumerate(exps)
                if e
            ]
            if not factors or mag != ring.field.one:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if pieces:
                pieces.append(("- " if neg else "+ ") + body)
            else:
                pieces.append("-" + body if neg else body)
        return " ".join(pieces)


class QuotientRing:
    """A = Q/(z1..zc) for a homogeneous regular sequence z.

    Elements of A are represented by Q-polynomials; canonical representatives
    are normal forms against the cached Groebner basis of (z).  c = 0 is
    allowed and makes A a copy of Q.
    """

    def __init__(self, base: PolyRing, relations):
        self.base = base
        rels = []
        for z in relations:
            if z.is_zero():
                raise ValueError("zero element in defining sequence")
            if z.degree == 0:
                raise ValueError("unit element in defining sequence")
            if z.ring != base:
                raise ValueError("defining element from wrong ring")
            rels.append(z)
        self.relations = tuple(rels)
        self.f_degrees = tuple(sorted(z.degree for z in self.relations))
        self._zgb = None
        if self.relations:
            self._check_regular_sequence()

    def _groebner_of_relations(self):
        if self._zgb is None:
            from .groebner import buchberger
            from .freemod import GradedFreeModule

            ambient = GradedFreeModule(self.base, (0,))
            gens = [(z,) for z in self.relations]
            self._zgb = buchberger(gens, ambient, cap=None)
        return self._zgb

    def normal_form(self, p: GradedPoly) -> GradedPoly:
        """Canonical representative of p + (z) in Q."""
        if not self.relations or p.is_zero():
            return p
        from .groebner import normal_form

        return normal_form((p,), self._groebner_of_relations())[0]

    def is_std_monomial(self, exps) -> bool:
        if not self.relations:
            return True
        gb = self._groebner_of_relations()
        return not any(monomial_divides(g[0].lm(), exps) for g in gb.elements)

    def std_monomials_of_degree(self, s: int):
        return [e for e in self.base.monomials_of_degree(s) if self.is_std_monomial(e)]

    def _lt_ideal_dimension(self) -> int:
        """Krull dimension of Q/(lt(z-GB)) via maximal independent variable
        sets; exact for monomial ideals."""
        gb = self._groebner_of_relations()
        lts = [g[0].lm() for g in gb.elements]
        d = self.base.nvars
        for size in range(d, -1, -1):
            for subset in combinations(range(d), size):
                sset = set(subset)
                if not any(
                    all(i in sset for i, e in enumerate(lt) if e) for lt in lts
                ):
                    return size
        return 0

    def _check_regular_sequence(self):
        # ht(z) = c iff dim Q/(z) = d - c; for c homogeneous generators in a
        # polynomial ring this certifies the sequence is regular.
        dim = self._lt_ideal_dimension()
        expected = self.base.nvars - len(self.relations)
        if dim != expected:
            raise ValueError(
                f"defining sequence is not regular: dim Q/(z) = {dim}, "
                f"expected {expected}"
            )

    def poly(self, text: str) -> GradedPoly:
        return self.normal_form(parse_poly(self.base, text))

    @property
    def nvars(self):
        return self.base.nvars

    @property
    def field(self):
        return self.base.field

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and other.base == self.base
            and other.relations == self.relations
        )

    def __hash__(self):
        return hash((self.base, self.relations))

    def __repr__(self):
        if not self.relations:
            return f"{self.base}/()"
        rels = ", ".join(repr(z) for z in self.relations)
        return f"{self.base}/({rels})"


# ---------------------------------------------------------------------------
# Tiny expression parser for polynomials in x1..xd (used by the problem-file
# grammar and handy in tests/demos).  Raises ValueError with a character
# offset; the problem-file layer converts that into positioned diagnostics.
# ---------------------------------------------------------------------------


def _tokenize_poly(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^/()":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ValueError(f"offset {i}: variable needs an index, e.g. x1")
            toks.append(("var", text[i:j], i))
            i = j
            continue
        raise ValueError(f"offset {i}: unexpected character {ch!r}")
    toks.append(("end", "", n))
    return toks


def parse_poly(ring: PolyRing, text: str) -> GradedPoly:
    """Parse e.g. '2*x1^2*x2 - x2^3 + 1/2*x1*x2^2' into a GradedPoly.

    The result must be homogeneous (or zero); mixed degrees raise
    HomogeneityError.
    """
    toks = _tokenize_poly(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(kind=None):
        nonlocal pos
        t = toks[pos]
        if kind is not None and t[0] != kind:
            raise ValueError(f"offset {t[2]}: expected {kind}, got {t[1]!r}")
        pos += 1
        return t

    def parse_factor():
        kind, val, off = peek()
        if kind == "int":
            take()
            num = int(val)
            if peek()[0] == "/":
                take()
                den = int(take("int")[1])
                if den == 0:
                    raise ValueError(f"offset {off}: zero denominator")
                if ring.field.characteristic == 0:
                    from fractions import Fraction

                    return ring.constant(Fraction(num, den))
                return ring.constant(ring.field.div(ring.field(num), ring.field(den)))
            return ring.constant(num)
        if kind == "var":
            take()
            idx = int(val[1:])
            if not 1 <= idx <= ring.nvars:
                raise ValueError(
                    f"offset {off}: variable {val} out of range 1..{ring.nvars}"
                )
            p = ring.variable(idx - 1)
            if peek()[0] == "^":
                take()
                exp = int(take("int")[1])
                exps = [0] * ring.nvars
                exps[idx - 1] = exp
                p = ring.monomial(exps)
            return p
        if kind == "(":
            take()
            p = parse_expr()
            if peek()[0] != ")":
                raise ValueError(f"offset {peek()[2]}: expected ')'")
            take()
            return p
        raise ValueError(f"offset {off}: expected a coefficient or variable")

    def parse_term():
        p = parse_factor()
        while peek()[0] == "*":
            take()
            p = p * parse_factor()
        return p

    def parse_expr():
        sign = 1
        if peek()[0] in "+-":
            sign = -1 if take()[0] == "-" else 1
        acc = parse_term()
        if sign < 0:
            acc = -acc
        while peek()[0] in "+-":
            op = take()[0]
            t = parse_term()
            acc = acc - t if op == "-" else acc + t
        return acc

    result = parse_expr()
    if peek()[0] != "end":
        raise ValueError(f"offset {peek()[2]}: trailing input {peek()[1]!r}")
    return result
