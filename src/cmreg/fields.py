"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python objects (`Fraction` for characteristic 0,
`int` in [0, p) for characteristic p); the field object supplies the
arithmetic.  This keeps polynomial term dicts lightweight and hashable.
"""

from __future__ import annotations

from fractions import Fraction


#: Miller-Rabin with the first 13 primes as bases decides primality exactly
#: below _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson
#: and Webster, Math. Comp. 86 (2017), 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large: characteristics must be below {_MR_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(
        pow(b, d, n) == 1 or n - 1 in (pow(b, d << r, n) for r in range(s))
        for b in _MR_BASES
    )


class RationalField:
    """The field of exact rationals, backed by fractions.Fraction."""

    characteristic = 0

    def __call__(self, x):
        if isinstance(x, float):
            raise TypeError(f"{x!r} is a float, not an exact rational")
        return Fraction(x)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def sub_row(self, row, f, support):
        """row[j] -= f * y for each (j, y) in support, in place."""
        for j, y in support:
            row[j] = row[j] - f * y

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with canonical representatives in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def __call__(self, x):
        """The image of an exact rational, if p does not divide its denominator."""
        if type(x) is int:
            return x % self.p
        x = QQ(x)
        return x.numerator * self.inv(x.denominator) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def sub_row(self, row, f, support):
        """row[j] -= f * y for each (j, y) in support, in place."""
        p = self.p
        for j, y in support:
            row[j] = (row[j] - f * y) % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

#: Default field for computations whose answers do not depend on the
#: characteristic; a largish prime keeps arithmetic fast and overflow-free.
GF32003 = PrimeField(32003)


def field_of_characteristic(char: int):
    return QQ if char == 0 else PrimeField(char)
