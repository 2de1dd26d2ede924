"""
Graded Ext and Tor over complete intersections
==============================================

ext(M, N, i) and tor(M, N, i) return graded subquotient presentations of
Ext_A^i(M, N) and Tor_i^A(M, N), computed from a minimal A-free
resolution of M.  Over a complete intersection the regularities of these
modules settle into exact linear patterns in i; this script computes a
few ladders where the closed forms are known and checks them.
"""

from cmreg.ext_tor import ext, tor
from cmreg.fields import GF32003
from cmreg.freemod import NEG_INF, cyclic_presentation
from cmreg.groebner import presentation_is_zero
from cmreg.regularity import regularity
from cmreg.resolution import resolve_over_A
from cmreg.rings import PolyRing


def reg_of(E):
    return regularity(E.presentation)


# -- self-Ext of the residue field over K[x]/(x^2) ------------------------

Q1 = PolyRing(1, GF32003)
A1 = Q1.quotient([Q1.poly("x1^2")])
k1 = cyclic_presentation(A1, [A1.poly("x1")])
R1 = resolve_over_A(k1, cap=9)
print("A = K[x]/(x^2), M = N = A/(x)")
for i in range(9):
    r = reg_of(ext(None, k1, i, resolution=R1))
    assert r == -i
    print(f"  reg Ext^{i} = {r}")
print("  pattern: reg Ext^i = -i, one step down per index")

# -- a codimension two example -------------------------------------------

# A = K[x,y]/(x^2, y^3), M = N = A/(y).  The minimal resolution of M has
# twists 0, 1, 3, 4, 6, 7, ... and the Ext regularities move by -3 per
# double step: reg Ext^{2i} = -3i + 1, reg Ext^{2i+1} = -3i.
Q2 = PolyRing(2, GF32003)
A2 = Q2.quotient([Q2.poly("x1^2"), Q2.poly("x2^3")])
M2 = cyclic_presentation(A2, [A2.poly("x2")])
R2 = resolve_over_A(M2, cap=7)
print()
print("A = K[x,y]/(x^2, y^3), M = N = A/(y)")
print("  resolution twists:", R2.twist_lists())
for i in range(3):
    even = reg_of(ext(None, M2, 2 * i, resolution=R2))
    odd = reg_of(ext(None, M2, 2 * i + 1, resolution=R2))
    assert (even, odd) == (-3 * i + 1, -3 * i)
    print(f"  i={i}: reg Ext^{2 * i} = {even},  reg Ext^{2 * i + 1} = {odd}")

# Tor of the same pair grows instead of falling: reg Tor_{2i} = 3i + 1,
# reg Tor_{2i+1} = 3i + 2.
print()
for i in range(3):
    even = reg_of(tor(None, M2, 2 * i, resolution=R2))
    odd = reg_of(tor(None, M2, 2 * i + 1, resolution=R2))
    assert (even, odd) == (3 * i + 1, 3 * i + 2)
    print(f"  i={i}: reg Tor_{2 * i} = {even},  reg Tor_{2 * i + 1} = {odd}")

# -- vanishing is detected, not guessed ----------------------------------

# Over K[x,y]/(xy) with M = A/(x) and N = A/(y) (placed so its generator
# sits in degree 1), the odd Tor modules are zero: the presentation
# machinery returns a module whose generators all lie in the boundaries.
Qr = PolyRing(2, GF32003)
Ar = Qr.quotient([Qr.poly("x1*x2")])
Mr = cyclic_presentation(Ar, [Ar.poly("x1")])
Nr = cyclic_presentation(Ar, [Ar.poly("x2")]).shift(-1)
Rr = resolve_over_A(Mr, cap=8)
print()
print("A = K[x,y]/(xy), M = A/(x), N = (A/(y))(-1)")
for i in range(3):
    even = tor(None, Nr, 2 * i, resolution=Rr)
    odd = tor(None, Nr, 2 * i + 1, resolution=Rr)
    assert presentation_is_zero(odd.presentation)
    assert reg_of(odd) == NEG_INF
    print(f"  i={i}: reg Tor_{2 * i} = {reg_of(even)},  Tor_{2 * i + 1} = 0 (reg -inf)")

# Sanity anchor: Ext^0(A, N) is Hom_A(A, N) = N, so its regularity is
# reg N = 1 (the generator of N sits in degree 1).
free_res = resolve_over_A(cyclic_presentation(Ar, []), cap=2)
E0 = ext(None, Nr, 0, resolution=free_res)
assert reg_of(E0) == 1
print()
print("Ext^0(A, N) recovers N: reg =", reg_of(E0))
