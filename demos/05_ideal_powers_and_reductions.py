"""
Ideal powers, reductions, and the stabilization degree
======================================================

For an ideal I and module N the package builds the submodules I^n N and
the quotients N / I^n N as honest graded presentations.  The growth rate
of reg(I^n N) in n is controlled by an invariant rho_N(I): the smallest
d(J) over ideals J that are N-reductions of I (I^{n+1} N = J I^n N for
large n).  rho_upper certifies an upper bound for it by exhibiting a
reduction witness; it never claims exactness.
"""

from cmreg.fields import GF32003
from cmreg.freemod import cyclic_presentation
from cmreg.rees import (
    IdealData,
    is_reduction,
    power_module,
    quotient_module,
    rho_upper,
    unit_ideal,
)
from cmreg.regularity import regularity
from cmreg.rings import PolyRing, QuotientRing

# The running example: A = K[x,y]/(xy), N = (A/(y))(-1), I = (x).
Q = PolyRing(2, GF32003)
A = QuotientRing(Q, [Q.poly("x1*x2")])
N = cyclic_presentation(A, [A.poly("x2")]).shift(-1)
I = IdealData(A, [A.poly("x1")])

# -- powers and quotients ------------------------------------------------

# reg(I^n N) climbs by exactly d(I) = 1 per power here; the quotients
# stabilize one lower.  n = 0 is the degenerate row: I^0 N = N and
# N/N = 0, printed as -inf.
print("n   reg I^n N   reg N/I^n N")
for n in range(5):
    rp = regularity(power_module(I, n, N))
    rq = regularity(quotient_module(N, I, n))
    print(f"{n}   {rp!s:>9}   {rq!s:>11}")
assert power_module(I, 0, N) is N

# -- reduction tests -----------------------------------------------------

# is_reduction(J, I, N, n_max) returns the stabilization exponent: the
# least n <= n_max with I^{n+1} N = J I^n N.  J must sit inside I or the
# precondition check raises.
print()
print("I is a reduction of itself from n =", is_reduction(I, I, N, n_max=3))

# The zero ideal never stabilizes against I on this N; None records the
# failure as inconclusive rather than a disproof.
n0 = is_reduction(IdealData(A, []), I, N, n_max=3)
print("0 is a reduction of I from n =", n0, " (searched up to n = 3)")

# -- certified upper bounds for rho --------------------------------------

# rho_upper tries the zero ideal, one ideal J_t per generator degree t of I
# (its minimal generators of degree <= t; the top one is I), plus any
# explicit candidates, and returns the first certified reduction J in
# order of d(J) with its exponent n; d(J) is the upper bound.  A subset of
# the generators that is a reduction lies in some J_t of the same d, which
# is one too.
J, n = rho_upper(I, N, n_max=3)
print()
print("rho upper bound:", J.d1())
print("witness ideal generators:", [str(p) for p in J.generators])
print("stable from n =", n)

# For the unit ideal every power module is N itself, so the bound is 0.
print()
print("rho upper bound for I = A:", rho_upper(unit_ideal(A), N)[0].d1())
