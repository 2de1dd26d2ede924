"""
Exact coefficients, graded polynomials, and module Groebner bases
=================================================================

Everything in the package runs over an exact field, so no answer ever
depends on floating point.  This script walks the arithmetic layer from
field elements up to Groebner bases of submodules of graded free modules,
which is the engine behind every kernel and syzygy computation.
"""

from cmreg.fields import GF32003, QQ
from cmreg.freemod import (
    GradedFreeModule,
    GradedMap,
    basis_vector,
    vec_add,
    vec_mul_poly,
)
from cmreg.groebner import (
    kernel,
    normal_form,
    preimage,
    submodule_contains,
    submodule_gb,
)
from cmreg.rings import PolyRing

# -- exact fields --------------------------------------------------------

# GF32003 is the default coefficient field: a largish prime field where
# arithmetic is plain modular integers.  QQ uses fractions.Fraction.
a = GF32003(7)
print("in GF(32003):  7 * 7^-1 =", GF32003.mul(a, GF32003.inv(a)))
print("in QQ:         2/3 + 1/6 =", QQ.add(QQ(2) / 3, QQ(1) / 6))

# -- graded polynomials --------------------------------------------------

# PolyRing(n, field) is K[x1..xn] with the standard grading.  Polynomials
# parse from strings and print back in a stable order.
Q = PolyRing(2, GF32003)
p = Q.poly("x1^2 + 2*x1*x2")
q = Q.poly("x2")
print()
print("p       =", p)
print("p * q   =", p * q)
print("deg p*q =", (p * q).degree)

# Every polynomial the package touches is homogeneous; mixing degrees is
# rejected at construction time.
try:
    Q.poly("x1 + x1^2")
except Exception as e:
    print("inhomogeneous input:", e)

# -- quotient rings ------------------------------------------------------

# Q.quotient(zs) is A = Q/(zs) for a homogeneous regular sequence.
# Arithmetic happens in the base ring; normal_form against a Groebner
# basis of (zs) picks the canonical representative of a coset.
A = Q.quotient([Q.poly("x1*x2")])
x, y = A.poly("x1"), A.poly("x2")
print()
print("in K[x,y]/(xy):  NF(x * y) =", A.normal_form(x * y))
print("std monomials of degree 3:", A.std_monomials_of_degree(3))

# -- submodule Groebner bases --------------------------------------------

# Vectors in a graded free module are tuples of polynomials; the module
# remembers one twist per basis element.  F below is Q(0) + Q(-1).
F = GradedFreeModule(Q, (0, 1))
v1 = vec_mul_poly(basis_vector(F, 0), Q.poly("x1^2"))
v2 = vec_add(
    vec_mul_poly(basis_vector(F, 0), Q.poly("x1*x2")),
    vec_mul_poly(basis_vector(F, 1), Q.poly("x2")),
)
gb = submodule_gb([v1, v2], F)
print()
print("Groebner basis of <v1, v2> has", len(gb.elements), "elements")

# Normal forms decide membership: x2 * v1 reduces to zero, a random
# vector of the same degree does not.
w = vec_mul_poly(v1, Q.poly("x2"))
print("x2*v1 in the submodule:", submodule_contains(gb, w))
print("NF(x2*v1) =", normal_form(w, gb))

# preimage writes a vector in terms of the columns of a map: it reduces
# against one elimination basis of the map's graph.
G1 = GradedFreeModule(Q, (0,))
target = (Q.poly("x1*x2^2 + x1^2*x2"),)
phi = GradedMap(GradedFreeModule(Q, (1, 2)), G1, [[Q.poly("x1"), Q.poly("x2^2")]])
coeffs = preimage(phi, target)
print()
print("preimage of", target[0], "under [x1  x2^2]:")
for c in coeffs:
    print("   ", c)

# -- kernels -------------------------------------------------------------

# kernel(phi) returns generating vectors of ker(phi), the basic step that
# resolutions iterate.  Over A = Q/(xy) the kernel of multiplication by x
# on A(-1) -> A is generated by y (the relation xy = 0 in play).
FA = GradedFreeModule(A, (1,))
GA = GradedFreeModule(A, (0,))
mul_x = GradedMap(FA, GA, [[x]])
ker = kernel(mul_x)
print()
print("ker( A(-1) --x--> A ) generators:", [tuple(str(p) for p in v) for v in ker])
