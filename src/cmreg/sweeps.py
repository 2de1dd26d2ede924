"""Grid sweeps of reg Ext_A^{2i+l}(M, C) for C = I^n N or N/I^n N, bound
verification against the line rho_hat*n - f*i + e_hat, and eventual-linearity
fits along grid rows and columns.

Everything here is exact integer bookkeeping on top of ext/regularity; the
only "statistics" is detecting when consecutive differences stabilize.

A sweep resolves M once, to homological degree 2*i_max + 2: every requested
Ext index has the syzygy module it needs, and a longer resolution would only
compute kernels no cell reads.  It builds each coefficient module C once per
(variant, n).  A C equal (==) to one built earlier copies that column's cells
and computes no Ext; an Ext presentation equal to one seen earlier in the
sweep copies that cell's value and computes no regularity.  Where the
resolution repeats (d_k, d_{k+1} are d_{k-2}, d_{k-1} shifted up by s > 0:
FreeResolution.repeats), Ext^k is Ext^{k-2} twisted down by s, and index k
takes the value at k - 2 minus s: every degree its Ext would reach is s below
one that finished under the absolute cap.  A CAP at k - 2 is not copied.

A degree cap hit while computing a cell's Ext or its regularity records the
CAP marker in that cell (and in every cell that copies it) and the run
continues.  A cap hit while resolving M or building a power module I^n N
aborts the whole sweep with DegreeCapExceeded (exit 2 from the CLI).
"""

from __future__ import annotations

from .errors import DegreeCapExceeded
from .ext_tor import ext
from .freemod import NEG_INF, ModulePresentation
from .groebner import DEFAULT_DEGREE_CAP
from .rees import IdealData, power_module, quotient_module
from .regularity import regularity
from .resolution import resolve_over_A

#: cell marker: the computation for this cell breached its degree cap
CAP = "cap"

VARIANTS = ("power", "quotient")

PARITY_NAMES = ("even", "odd")

#: stated in every BoundReport: a finite grid exhibits the bound, it cannot
#: certify the all-(i, n) statement.
GRID_LIMITATION_NOTE = (
    "grid-level evidence only: e-hat is the empirical maximum residual over "
    "the computed cells and the bound is certified for those cells alone, "
    "not for all i, n"
)


class ExtRegTable:
    """Regularity values on the (variant, parity, i, n) grid.

    cells maps (variant, parity, i, n) with parity in {"even", "odd"} to an
    int, NEG_INF, or the CAP marker.  Ext index 2i + l lives at parity
    PARITY_NAMES[l].
    """

    def __init__(
        self, i_max: int, n_max: int, variants: tuple, cells: dict, metadata: dict = None
    ):
        self.i_max = i_max
        self.n_max = n_max
        self.variants = variants
        self.cells = cells
        self.metadata = {} if metadata is None else metadata

    def cell(self, variant, parity, i, n):
        return self.cells[(variant, parity, i, n)]

    def keys(self):
        return sorted(self.cells, key=_cell_sort_key)

    def rows(self):
        """(variant, parity, i, n, value) in a fixed total order."""
        return [k + (self.cells[k],) for k in self.keys()]

    def series(self, variant, parity, axis, fixed):
        """Cell values along one grid line: axis "i" varies i at n = fixed,
        axis "n" varies n at i = fixed."""
        if axis == "i":
            return [self.cells[(variant, parity, i, fixed)] for i in range(self.i_max + 1)]
        if axis == "n":
            return [self.cells[(variant, parity, fixed, n)] for n in range(self.n_max + 1)]
        raise ValueError(f"axis must be 'i' or 'n', got {axis!r}")


def _cell_sort_key(key):
    variant, parity, i, n = key
    return (VARIANTS.index(variant), PARITY_NAMES.index(parity), i, n)


def reg_to_text(value) -> str:
    if value == CAP:
        return CAP
    if value == NEG_INF:
        return "-inf"
    return str(int(value))


def sweep(
    M: ModulePresentation,
    N: ModulePresentation,
    I: IdealData,
    i_max: int,
    n_max: int,
    variants=("power",),
    degree_cap=DEFAULT_DEGREE_CAP,
) -> ExtRegTable:
    """reg Ext_A^{2i+l}(M, C) for 0 <= i <= i_max, 0 <= n <= n_max, C the
    power module I^n N or the quotient module N/I^n N per variant."""
    variants = tuple(variants)
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    ring = M.ring
    if not ring.relations:
        raise ValueError("sweep expects modules over A = Q/(z) with z nonempty")
    hom_cap = 2 * i_max + 2
    R = resolve_over_A(M, cap=hom_cap, degree_cap=degree_cap)
    shifts = [R.repeats(idx) for idx in range(hom_cap)]

    cells = {}
    columns = []  # (C, its value at each Ext index) per distinct C so far
    regs = []  # (Ext presentation, its value) per distinct Ext so far
    for variant in variants:
        for n in range(n_max + 1):
            if variant == "power":
                C = power_module(I, n, N, degree_cap=degree_cap)
            else:
                C = quotient_module(N, I, n)
            values = next((vals for D, vals in columns if D == C), None)
            if values is None:
                values = []
                for idx, s in enumerate(shifts):
                    if s is not None and values[idx - 2] != CAP:
                        values.append(values[idx - 2] - s)
                        continue
                    try:
                        E = ext(M, C, idx, resolution=R, degree_cap=degree_cap)
                    except DegreeCapExceeded:
                        values.append(CAP)
                        continue
                    value = next((v for P, v in regs if P == E.presentation), None)
                    if value is None:
                        try:
                            value = regularity(E.presentation, degree_cap=degree_cap)
                        except DegreeCapExceeded:
                            value = CAP
                        regs.append((E.presentation, value))
                    values.append(value)
                columns.append((C, values))
            for idx, value in enumerate(values):
                cells[(variant, PARITY_NAMES[idx % 2], idx // 2, n)] = value

    metadata = {
        "field": repr(ring.field),
        "degree_cap": degree_cap,
        "homological_cap": hom_cap,
        "f": min(ring.f_degrees),
        "f_degrees": list(ring.f_degrees),
        "variants": list(variants),
    }
    return ExtRegTable(i_max, n_max, variants, cells, metadata)


class LinearFit:
    """Eventual-linearity report for one grid line.

    status is one of "linear" (differences stabilize with >= 3 stabilized
    points), "not-linear", "inconclusive" (fewer than 3 usable points), or
    "empty" (every cell is a zero module).  For "linear", value(k) =
    slope*k + intercept from index onset on.
    """

    def __init__(
        self, status: str, slope: int = None, intercept: int = None, onset: int = None
    ):
        self.status = status
        self.slope = slope
        self.intercept = intercept
        self.onset = onset

    @property
    def linear(self):
        return self.status == "linear"


def fit_sequence(values) -> LinearFit:
    """Detect an eventually linear integer sequence by exact differences."""
    vals = list(values)
    if all(v == NEG_INF for v in vals):
        return LinearFit("empty")
    while vals and vals[-1] == CAP:
        vals.pop()
    # eventual linearity can only live on the finite run after the last
    # -inf or cap, each cell at its own index
    start = max((k + 1 for k, v in enumerate(vals) if v in (NEG_INF, CAP)), default=0)
    tail = vals[start:]
    if len(tail) < 3:
        return LinearFit("inconclusive")
    diffs = [tail[k + 1] - tail[k] for k in range(len(tail) - 1)]
    onset = len(diffs) - 1
    while onset > 0 and diffs[onset - 1] == diffs[-1]:
        onset -= 1
    # onset is the first index (within the tail) where the common
    # difference holds; require >= 3 points on the stabilized segment
    if len(tail) - onset < 3:
        return LinearFit("not-linear")
    slope = diffs[-1]
    k0 = start + onset
    return LinearFit("linear", slope, tail[onset] - slope * k0, k0)


def fit_asymptote(T: ExtRegTable, axis: str) -> dict:
    """Per-(variant, parity) LinearFit along the last column (axis "i",
    n = n_max) or the last row (axis "n", i = i_max)."""
    fixed = T.n_max if axis == "i" else T.i_max
    out = {}
    for variant in T.variants:
        for parity in PARITY_NAMES:
            out[(variant, parity)] = fit_sequence(T.series(variant, parity, axis, fixed))
    return out


class BoundReport:
    """Verification of reg <= rho_hat*n - f*i + e_hat over one table.

    e_hat, tightness (cells achieving equality), violations (cells above
    the reported constant; empty unless a caller supplies a constant that
    is too small), unverified (cap-breach cells), and fits are all keyed by
    (variant, parity).  note always carries GRID_LIMITATION_NOTE.
    """

    def __init__(
        self,
        rho_hat: int,
        f: int,
        e_hat: dict,
        tightness: dict,
        violations: list,
        unverified: list,
        fits: dict,
    ):
        self.rho_hat = rho_hat
        self.f = f
        self.e_hat = e_hat
        self.tightness = tightness
        self.violations = violations
        self.unverified = unverified
        self.fits = fits
        self.note = GRID_LIMITATION_NOTE

    @property
    def ok(self):
        return not self.violations


def verify_bounds(T: ExtRegTable, rho_hat: int, f: int, const=None) -> BoundReport:
    """BoundReport for T against the line rho_hat*n - f*i + e_hat.

    With const=None, e_hat is the minimal constant per (variant, parity)
    making the bound hold over all finite cells (so violations is empty and
    some cell is tight by construction).  With an explicit const the report
    instead checks every finite cell against it.
    """
    e_hat = {}
    tightness = {}
    violations = []
    unverified = []
    residuals = {}
    for (variant, parity, i, n), value in T.cells.items():
        key = (variant, parity)
        if value == CAP:
            unverified.append((variant, parity, i, n))
            continue
        if value == NEG_INF:
            continue
        residuals.setdefault(key, {})[(i, n)] = value - (rho_hat * n - f * i)
    for variant in T.variants:
        for parity in PARITY_NAMES:
            key = (variant, parity)
            cellres = residuals.get(key, {})
            if not cellres:
                e_hat[key] = NEG_INF
                tightness[key] = []
                continue
            bound = max(cellres.values()) if const is None else const
            e_hat[key] = bound
            tightness[key] = sorted(c for c, r in cellres.items() if r == bound)
            violations.extend(
                (variant, parity, i, n)
                for (i, n), r in sorted(cellres.items())
                if r > bound
            )
    fits = {
        "i": fit_asymptote(T, "i"),
        "n": fit_asymptote(T, "n"),
    }
    return BoundReport(rho_hat, f, e_hat, tightness, violations, sorted(unverified), fits)
