"""
Regularity sweeps and bound verification
========================================

The experiment the package automates: fix (M, N, I) over a complete
intersection, compute reg Ext_A^{2i+l}(M, I^n N) over a grid of (i, n),
and check the values against the affine bound rho*n - f*i + e.  sweep
produces the grid, fit_sequence reads off the asymptotic slopes, and
verify_bounds reports the minimal constant together with the cells where
the bound is tight.
"""

from cmreg.fields import GF32003
from cmreg.freemod import cyclic_presentation
from cmreg.rees import IdealData
from cmreg.rings import PolyRing
from cmreg.sweeps import fit_sequence, reg_to_text, sweep, verify_bounds

# A = K[x,y]/(xy), M = A/(x), N = (A/(y))(-1) = the ideal (x), I = (x).
Q = PolyRing(2, GF32003)
A = Q.quotient([Q.poly("x1*x2")])
M = cyclic_presentation(A, [A.poly("x1")])
N = cyclic_presentation(A, [A.poly("x2")]).shift(-1)
I = IdealData(A, [A.poly("x1")])

# -- the grid -------------------------------------------------------------

# Both variants at once: C = I^n N ("power") and C = N / I^n N
# ("quotient").  Cells hold ints, -inf for a vanishing Ext module, or the
# marker "cap" if a degree cap was hit (none here).
T = sweep(M, N, I, i_max=3, n_max=4, variants=("power", "quotient"))
print("metadata:", {k: T.metadata[k] for k in ("f", "f_degrees", "homological_cap")})
for variant in T.variants:
    for parity in ("even", "odd"):
        print(f"\n  reg Ext^(2i+{0 if parity == 'even' else 1})(M, {variant} module), rows i, cols n:")
        for i in range(T.i_max + 1):
            row = [reg_to_text(T.cell(variant, parity, i, n)) for n in range(T.n_max + 1)]
            print("   ", "  ".join(f"{v:>4}" for v in row))

# The even power cells vanish identically; the odd ones read n - 2i.

# -- asymptotic slopes -----------------------------------------------------

# fit_sequence fits the tail of a sequence once consecutive differences
# stabilize; the odd power rows move by +1 in n and -2 in i.
along_n = [T.cell("power", "odd", 3, n) for n in range(T.n_max + 1)]
along_i = [T.cell("power", "odd", i, T.n_max) for i in range(T.i_max + 1)]
fn = fit_sequence(along_n)
fi = fit_sequence(along_i)
print()
print("odd power cells along n:", along_n, "->", fn.status, "slope", fn.slope)
print("odd power cells along i:", along_i, "->", fi.status, "slope", fi.slope)

# -- verifying the bound ---------------------------------------------------

# verify_bounds checks reg <= rho*n - f*i + e over every finite cell.
# With no explicit constant it reports the minimal e per (variant,
# parity) and the cells achieving it.
report = verify_bounds(T, rho_hat=1, f=2)
print()
print("bound reg <= 1*n - 2*i + e verified:", report.ok)
for key in sorted(report.e_hat):
    e = report.e_hat[key]
    tight = report.tightness[key]
    print(f"  {key}: minimal e = {reg_to_text(e)}, tight at {len(tight)} cells")
print("note:", report.note)

# Handing verify_bounds a constant that is too small produces honest
# violations instead of a silent re-fit.
bad = verify_bounds(T, rho_hat=1, f=2, const=-1)
print()
print("with e forced to -1:", len(bad.violations), "violations, ok =", bad.ok)
