"""
Free resolutions and graded Betti tables
========================================

Over the polynomial ring every finitely generated graded module has a
finite minimal free resolution; over a quotient A = Q/(z) resolutions are
typically infinite, so they are computed through a requested homological
degree.  This script builds both kinds and reads off Betti tables.
"""

from cmreg.fields import GF32003
from cmreg.freemod import cyclic_presentation
from cmreg.resolution import betti_table, minimize, resolve_over_A, resolve_over_Q
from cmreg.rings import PolyRing

# -- the Koszul complex, recovered by the syzygy machine -----------------

# K = Q/(x1, x2, x3) over Q = K[x1,x2,x3].  Its minimal resolution is the
# Koszul complex on the variables, so beta_{i,i} = binomial(3, i).
Q3 = PolyRing(3, GF32003)
K = cyclic_presentation(Q3, [Q3.poly(t) for t in ("x1", "x2", "x3")])
R = resolve_over_Q(K)
print("residue field over K[x1,x2,x3]:", R)
print("twists by homological degree:", R.twist_lists())
print("complete:", R.complete, " is_complex:", R.is_complex())
print()
print(betti_table(R))

# -- non-minimal resolutions and minimization ----------------------------

# A presentation with a redundant generator: the cover Q + Q(-1) presents
# a free module of rank 1, because the relation x1*e1 - e2 makes the
# second generator a multiple of the first.  resolve_over_Q(minimal=False)
# resolves the presentation as given, unit entry and all (every later step
# takes minimal kernel generators, as the minimal resolution does);
# minimize cancels the unit and lands on the minimal resolution.
from cmreg.freemod import GradedFreeModule, GradedMap, ModulePresentation

F = GradedFreeModule(Q3, (0, 1))
M = ModulePresentation(
    GradedMap(GradedFreeModule(Q3, (1,)), F, [[Q3.poly("x1")], [Q3.poly("-1")]])
)
Rbig = resolve_over_Q(M, minimal=False)
Rmin = minimize(Rbig)
print()
print("non-minimal ranks:", [len(t) for t in Rbig.twist_lists()])
print("minimized ranks:  ", [len(t) for t in Rmin.twist_lists()])
assert betti_table(Rmin) == betti_table(resolve_over_Q(M))
print("Betti table after minimization:", betti_table(Rmin).to_dict()["entries"])

# -- resolutions over a hypersurface -------------------------------------

# Over A = K[x]/(x^2) the residue field A/(x) has the 2-periodic minimal
# resolution ... -> A(-2) -> A(-1) -> A, every map multiplication by x.
# cap says how far to compute; complete=False records that the resolution
# keeps going past the cap.
Q1 = PolyRing(1, GF32003)
A = Q1.quotient([Q1.poly("x1^2")])
k = cyclic_presentation(A, [A.poly("x1")])
RA = resolve_over_A(k, cap=6)
print()
print("residue field over K[x]/(x^2):", RA)
print("twists:", RA.twist_lists())
print("d(3) entry:", RA.d(3).matrix[0][0], " complete:", RA.complete)
