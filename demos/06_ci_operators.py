"""
Cohomology operators on resolutions over complete intersections
===============================================================

A minimal A-free resolution over A = Q/(z1..zc) lifts to a sequence of
maps over Q whose failure to be a complex factors through the defining
equations: d~ o d~ = sum_j z_j t~_j.  The t~_j are the cohomology
operators.  They square to commuting degree -2 endomorphisms of Ext, and
they are the structural reason the Ext regularities of the other demos
move linearly in i.
"""

from cmreg.ci_ops import eisenbud_operators, induced_on_ext, operators_commute
from cmreg.ext_tor import ext
from cmreg.fields import GF32003
from cmreg.freemod import cyclic_presentation
from cmreg.resolution import resolve_over_A
from cmreg.rings import PolyRing

# A = K[x,y]/(x^2, y^3), M = A/(y): codimension two, so two operators.
Q = PolyRing(2, GF32003)
A = Q.quotient([Q.poly("x1^2"), Q.poly("x2^3")])
M = cyclic_presentation(A, [A.poly("x2")])
R = resolve_over_A(M, cap=8)

ops = eisenbud_operators(R)
print("relation degrees fs =", ops.fs, " f = min(fs) =", ops.f)
print("operators live at levels", ops.levels())

# -- the defining identity, rechecked by arithmetic -----------------------

# identity_holds(l) recomputes d~_{l-1} o d~_l and compares it entry by
# entry against sum_j z_j t~_j at that level.
for l in ops.levels():
    assert ops.identity_holds(l)
print("d~ o d~ = z1*t~_1 + z2*t~_2 at every computed level")

# Each t~_j maps F_l into F_{l-2} twisted by deg(z_j).
t2 = ops.t(1, 4)
print()
print("t~_2 at level 4:", list(t2.source.twists), "->", list(t2.target.twists))
print("entries:", [[str(p) for p in row] for row in t2.matrix])

# -- induced operators on Ext --------------------------------------------

# induced_on_ext(ops, j, i, N) is the induced map
# chi_j : Ext^i(M, N) -> Ext^{i+2}(M, N)(-deg z_j) on presentations.
# Here chi for y^3 is an isomorphism (unit matrix entry) while chi for
# x^2 acts by zero; that eigenvalue split is exactly what pins the slope
# of reg Ext^{2i+l} to -3 in the previous demo.
N = M
chi_x = induced_on_ext(ops, 0, 0, N)
chi_y = induced_on_ext(ops, 1, 0, N)
print()
print("chi_{x^2} on Ext^0 -> Ext^2: matrix", [[str(p) for p in r] for r in chi_x.map.matrix])
print("chi_{y^3} on Ext^0 -> Ext^2: matrix", [[str(p) for p in r] for r in chi_y.map.matrix])

# The operators commute up to homotopy, hence on the nose after passing
# to Ext; operators_commute checks chi_1 chi_2 = chi_2 chi_1 out of a
# given cohomological degree.
for i in range(3):
    assert operators_commute(ops, N, i, 0, 1)
print()
print("chi_1 chi_2 = chi_2 chi_1 on Ext^i for i = 0, 1, 2")

# The twists of Ext^{i+2} sit exactly deg(y^3) = 3 below those of Ext^i,
# matching the isomorphism chi_{y^3} exhibited above.
E2 = ext(None, N, 2, resolution=R)
E4 = ext(None, N, 4, resolution=R)
print("Ext^2 cover twists:", list(E2.presentation.cover.twists),
      " Ext^4 cover twists:", list(E4.presentation.cover.twists))
