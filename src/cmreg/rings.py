"""Polynomial rings Q = K[x1..xd], homogeneous polynomials, graded
quotients A = Q/(z1..zc) by a homogeneous regular sequence, and the token
stream that reads polynomial and problem-file text.

Monomials are dense exponent tuples (every variable has degree 1).  A
polynomial is a sparse dict {exponent tuple: nonzero field element} together
with its declared total degree; the zero polynomial has degree None and is
accepted wherever any degree is expected.
"""

from __future__ import annotations

import re
from itertools import combinations
from operator import add

from .errors import HomogeneityError, ProblemSyntaxError
from .fields import GF32003


def monomial_degree(exps) -> int:
    return sum(exps)


def monomial_mul(a, b):
    return tuple(map(add, a, b))


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


def _hit_within(supports, k):
    """True when at most k variables meet every set in supports: branch on
    the variables of the smallest set, which one of them must meet."""
    if not supports:
        return True
    if k == 0:
        return False
    smallest = min(supports, key=len)
    return any(
        _hit_within([s for s in supports if v not in s], k - 1) for v in smallest
    )


def _monomial_quotient_dimension(monomials, nvars) -> int:
    """Krull dimension of K[x_1..x_nvars]/(monomials): nvars minus the
    least number of variables meeting every monomial's support, found by
    iterative deepening; 0 when a monomial is 1."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monomials]
    if not all(supports):
        return 0
    return nvars - next(k for k in range(nvars + 1) if _hit_within(supports, k))


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

    def _leading_exponents(self):
        """Exponents of the leading terms of the Groebner basis of (z)."""
        if not self.relations:
            return []
        return [e for _, e, _ in self._groebner_of_relations().leading_terms]

    def is_std_monomial(self, exps) -> bool:
        return not any(monomial_divides(e, exps) for e in self._leading_exponents())

    def std_monomials_of_degree(self, s: int):
        # the leading exponents once per call: each read unpacks the basis
        lts = self._leading_exponents()
        return [
            m for m in self.base.monomials_of_degree(s)
            if not any(monomial_divides(e, m) for e in lts)
        ]

    def _check_regular_sequence(self):
        # ht(z) = c iff dim Q/(z) = d - c; for c homogeneous generators in a
        # polynomial ring this certifies the sequence is regular.  Q/(z) has
        # the dimension of Q/(lt(z-GB)), a monomial ideal.
        dim = _monomial_quotient_dimension(self._leading_exponents(), self.base.nvars)
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


# -- polynomial text in -------------------------------------------------------

#: the one token pattern of polynomials and problem files: an integer, a
#: name, or any other single character; whitespace separates tokens
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|\S")


class TokenStream:
    """One line of text as a stream of tokens, each an integer, a name or a
    single character.  It reads polynomials itself and the problem-file
    grammar reads the rest, so every syntax error is a ProblemSyntaxError
    at the line and 1-based column of the token it stopped at."""

    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.line = line
        self.tokens = [
            (m.lastgroup, m.group(), m.start() + 1) for m in _TOKEN.finditer(text)
        ]
        self.tokens.append((None, "", len(text) + 1))
        self.pos = 0
        self.mixed = None

    def peek(self) -> str:
        """The current token's text; "" at the end of the line."""
        return self.tokens[self.pos][1]

    def col(self) -> int:
        return self.tokens[self.pos][2]

    def error(self, message) -> ProblemSyntaxError:
        return ProblemSyntaxError(message, self.line, self.col())

    def accept(self, text) -> bool:
        if self.peek() != text:
            return False
        self.pos += 1
        return True

    def expect(self, *texts):
        for text in texts:
            if not self.accept(text):
                raise self.error(f"expected {text!r}")

    def end(self):
        if self.peek():
            raise self.error(f"trailing text {self.peek()!r}")

    def name(self) -> str:
        kind, text, _ = self.tokens[self.pos]
        if kind != "name":
            raise self.error("expected a name")
        self.pos += 1
        return text

    def natural(self) -> int:
        kind, text, _ = self.tokens[self.pos]
        if kind != "int":
            raise self.error("expected an integer")
        value = self._int(text)
        self.pos += 1
        return value

    def _int(self, digits) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error("integer too long") from None

    def integer(self) -> int:
        """A natural number with an optional leading minus."""
        return -self.natural() if self.accept("-") else self.natural()

    def poly(self, ring: PolyRing) -> GradedPoly:
        """Read a polynomial of ring: a signed sum of *-products of factors
        int, int/int, x<k>, x<k>^int or (poly).  A sum of mixed degrees
        raises HomogeneityError only once the whole polynomial is read, so
        the caller can quote it."""
        self.mixed = None
        try:
            p = self._sum(ring)
        except RecursionError:
            raise self.error("polynomial nested too deeply") from None
        if self.mixed is not None:
            raise self.mixed
        return p

    def _sum(self, ring):
        acc, sign = ring.zero, self.peek()
        if sign in ("+", "-"):
            self.pos += 1
        while True:
            term = self._product(ring)
            try:
                acc = acc - term if sign == "-" else acc + term
            except HomogeneityError as exc:
                self.mixed = self.mixed or exc
            sign = self.peek()
            if sign not in ("+", "-"):
                return acc
            self.pos += 1

    def _product(self, ring):
        p = self._factor(ring)
        while self.accept("*"):
            p = p * self._factor(ring)
        return p

    def _factor(self, ring):
        kind, text, _ = self.tokens[self.pos]
        if self.accept("("):
            p = self._sum(ring)
            self.expect(")")
            return p
        if kind == "int":
            F = ring.field
            c = F(self.natural())
            if self.accept("/"):
                den = F(self.natural())
                if den == F.zero:
                    self.pos -= 1
                    raise self.error("zero denominator")
                c = F.div(c, den)
            return ring.constant(c)
        if kind == "name" and text[0] == "x" and text[1:].isdigit():
            k = self._int(text[1:])
            if not 1 <= k <= ring.nvars:
                raise self.error(f"variable {text} out of range 1..{ring.nvars}")
            self.pos += 1
            exps = [0] * ring.nvars
            exps[k - 1] = self.natural() if self.accept("^") else 1
            return ring.monomial(exps)
        raise self.error("expected a coefficient or variable")


def parse_poly(ring: PolyRing, text: str) -> GradedPoly:
    """Parse e.g. '2*x1^2*x2 - x2^3 + 1/2*x1*x2^2' into a GradedPoly.  Bad
    syntax raises ProblemSyntaxError, a ValueError, at line 1 and the
    offending column; mixed degrees raise HomogeneityError."""
    ts = TokenStream(text)
    p = ts.poly(ring)
    ts.end()
    return p
