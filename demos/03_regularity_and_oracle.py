"""
Castelnuovo-Mumford regularity from two independent directions
==============================================================

reg(M) = max { j - i : beta_{ij}(M) != 0 }, read off the minimal free
resolution over the polynomial ring.  A module over A = Q/(z) is measured
through its presentation over Q.  As a cross-check the package also
computes Betti numbers without resolving anything, as Koszul homology
dimensions in each degree; the two must agree entry by entry.
"""

import random

from cmreg.fields import GF32003
from cmreg.freemod import NEG_INF, cyclic_presentation, free_presentation
from cmreg.regularity import betti_oracle, present_over_Q, regularity
from cmreg.resolution import betti_table, resolve_over_Q
from cmreg.rings import PolyRing

Q = PolyRing(2, GF32003)

# -- first values --------------------------------------------------------

k = cyclic_presentation(Q, [Q.poly("x1"), Q.poly("x2")])
print("reg k             =", regularity(k), "   (residue field)")
print("reg Q(-3)         =", regularity(free_presentation(Q, (3,))))
print("reg Q/(x1^3)      =", regularity(cyclic_presentation(Q, [Q.poly("x1^3")])))
print("reg 0             =", regularity(free_presentation(Q, ())))
assert regularity(free_presentation(Q, ())) == NEG_INF

# The shift law: reg M(a) = reg M - a.
M = cyclic_presentation(Q, [Q.poly("x1^2"), Q.poly("x1*x2")])
print()
print("reg M    =", regularity(M))
print("reg M(2) =", regularity(M.shift(2)), "  (shift law: drops by 2)")

# -- modules over a quotient ring ----------------------------------------

# present_over_Q rewrites an A-module presentation over the base ring by
# adding one relation z_j * e_k per defining equation and generator.
A = Q.quotient([Q.poly("x1*x2")])
NA = cyclic_presentation(A, [A.poly("x1")])
NQ = present_over_Q(NA)
print()
print("A-module relations:", NA.relations.source.rank,
      " -> over Q:", NQ.relations.source.rank)
print("reg A/(x) over A = K[x,y]/(xy):", regularity(NA))

# -- the Koszul homology oracle ------------------------------------------

# betti_oracle(M) computes beta_{ij} = dim H_i(K(x; M))_j with plain
# linear algebra over the coefficient field.  It never runs Buchberger,
# so it is a genuinely independent check of the resolution pipeline.
table_res = betti_table(resolve_over_Q(M))
table_orc = betti_oracle(M)
print()
print("resolution Betti entries:", table_res.to_dict()["entries"])
print("oracle Betti entries:    ", table_orc.to_dict()["entries"])
assert table_res == table_orc

# The same agreement on a batch of random small modules.
rng = random.Random(17)
checked = 0
for _ in range(25):
    polys = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, 3)
        monos = Q.monomials_of_degree(d)
        terms = {e: GF32003(rng.randrange(-2, 3)) for e in monos}
        p = Q.from_terms({e: c for e, c in terms.items() if c})
        if not p.is_zero():
            polys.append(p)
    if not polys:
        continue
    X = cyclic_presentation(Q, polys)
    assert betti_oracle(X) == betti_table(resolve_over_Q(X))
    checked += 1
print()
print("oracle == resolution on", checked, "random cyclic modules")
