from __future__ import annotations

import importlib
import random
from collections import Counter
from functools import reduce
from itertools import combinations

import reference_oracle as ref
from helpers import (
    PROBLEM_VARIANTS,
    ci3_setup,
    cyclic_quotient,
    hypersurface_setup,
    problem_file,
    random_presentation,
    reduced_hypersurface_setup,
    two_relation_setup,
)
from reference_pieces import piece_basis, presentation_hilbert
from cmreg.fields import GF32003, QQ
from cmreg.freemod import free_presentation
from cmreg.regularity import GradedPieces, betti_oracle, hilbert_function, present_over_Q
from cmreg.resolution import betti_table, resolve_over_A, resolve_over_Q
from cmreg.rings import PolyRing, QuotientRing

Q2 = PolyRing(2, GF32003)


def _resolution_betti(M):
    return betti_table(resolve_over_Q(present_over_Q(M)))


def test_oracle_on_koszul_complexes():
    for d in (1, 2, 3):
        Q = PolyRing(d, GF32003)
        K = cyclic_quotient(Q, [f"x{i + 1}" for i in range(d)])
        assert betti_oracle(K) == _resolution_betti(K)


def test_oracle_on_seeded_random_modules(seed):
    # Koszul-homology ranks against the minimal resolution, entry by entry
    rng = random.Random(seed)
    for trial in range(30):
        M = random_presentation(rng, Q2)
        assert betti_oracle(M) == _resolution_betti(M)


def test_oracle_over_quotient_ring(seed):
    rng = random.Random(seed + 7)
    A = QuotientRing(Q2, [Q2.poly("x1*x2")])
    for trial in range(8):
        M = random_presentation(rng, A)
        assert betti_oracle(M) == _resolution_betti(M)


def test_oracle_char_zero():
    Q = PolyRing(2, QQ)
    M = cyclic_quotient(Q, ["x1^2", "x1*x2"])
    assert betti_oracle(M) == _resolution_betti(M)


def test_oracle_partial_window_flag():
    M = cyclic_quotient(Q2, ["x1^3"])
    full = betti_oracle(M)
    assert not full.partial
    small = betti_oracle(M, deg_cap=1)
    assert small.partial
    # entries below the cap agree with the full table
    for (i, j), b in small.entries.items():
        assert full.entries.get((i, j)) == b


def test_oracle_builds_each_koszul_matrix_once(monkeypatch):
    # `cmreg.regularity` as an attribute is the re-exported function
    R = importlib.import_module("cmreg.regularity")
    built = Counter()
    real = R._koszul_matrix

    def counting(pieces, i, j):
        built[i, j] += 1
        return real(pieces, i, j)

    monkeypatch.setattr(R, "_koszul_matrix", counting)
    Q3 = PolyRing(3, GF32003)
    M = cyclic_quotient(Q3, ["x1^2", "x2*x3", "x1*x3^2"])
    table = betti_oracle(M)
    assert built and max(built.values()) == 1
    # d_0 .. d_4 for 3 variables, over the whole window, nothing more
    lo, hi = table.window
    assert set(built) == {(i, j) for i in range(5) for j in range(lo, hi + 1)}
    assert table == _resolution_betti(M)


def _ci3_sweep_ext_modules(monkeypatch):
    """The Ext modules whose regularity a ci3 sweep at i_max = n_max = 1
    computes."""
    sweeps = importlib.import_module("cmreg.sweeps")
    seen = []
    real = sweeps.regularity

    def recording(E, **kwargs):
        seen.append(E)
        return real(E, **kwargs)

    monkeypatch.setattr(sweeps, "regularity", recording)
    A, M, N, I = ci3_setup()
    sweeps.sweep(M, N, I, i_max=1, n_max=1)
    return seen


def test_resolution_euler_characteristic(seed, monkeypatch):
    # sum_i (-1)^i dim (F_i)_s = dim M_s on the oracle's window: exactness of
    # the minimal resolution over Q, against the Hilbert function by rank
    rng = random.Random(seed)
    Q3 = PolyRing(3, GF32003)
    modules = [random_presentation(rng, Q3) for _ in range(6)]
    modules += _ci3_sweep_ext_modules(monkeypatch)
    for setup in (hypersurface_setup, two_relation_setup, reduced_hypersurface_setup):
        A, M, N, I = setup()
        modules += [M, N]
    assert len(modules) > 12
    for M in modules:
        R = resolve_over_Q(present_over_Q(M))
        window = betti_oracle(M).window
        if window is None:  # the zero module
            assert not any(F.rank for F in R.modules)
            continue
        hilb = hilbert_function(M, *window)
        for s in range(window[0], window[1] + 1):
            chi = sum((-1) ** i * len(piece_basis(F, s)) for i, F in enumerate(R.modules))
            assert chi == hilb[s - window[0]], (M, s)


def _acceptance_modules():
    """M and N of the three acceptance setups and of ci3.prob."""
    out = []
    for setup in (hypersurface_setup, two_relation_setup, reduced_hypersurface_setup, ci3_setup):
        A, M, N, I = setup()
        out += [M, N]
    return out


def _assert_same_as_reference(M, deg_cap=None):
    new, old = betti_oracle(M, deg_cap), ref.betti_oracle(M, deg_cap)
    assert (new.entries, new.window, new.partial) == (
        old.entries, old.window, old.partial
    ), (M, deg_cap)


def test_oracle_matches_the_ambient_reference(seed):
    # pieces built degree by degree against pieces cut out of the ambient
    # monomial basis: equal Betti tables, windows and partial flags
    rng = random.Random(seed)
    Q3 = PolyRing(3, GF32003)
    modules = [random_presentation(rng, Q3) for _ in range(8)]
    modules += [random_presentation(rng, PolyRing(3, QQ)) for _ in range(2)]
    modules += [random_presentation(rng, Q2) for _ in range(12)]
    modules.append(free_presentation(Q3, (-2, 0, -1)))
    modules.append(cyclic_quotient(Q3, ["1"]))  # a unit relation: M = 0
    modules += _acceptance_modules()
    for M in modules:
        _assert_same_as_reference(M)
    # windows cut below the recommended one
    for M in modules[:4] + modules[-8:]:
        lo = betti_oracle(M).window[0]
        for deg_cap in (lo, lo + 2):
            _assert_same_as_reference(M, deg_cap)


def _product(field, A, B, ncols):
    """The matrix product A B, with ncols columns even where B has no rows."""
    return [
        [reduce(field.add, (field.mul(a, B[k][c]) for k, a in enumerate(row)), field.zero)
         for c in range(ncols)]
        for row in A
    ]


def test_pieces_match_the_hilbert_function_and_commute(seed):
    # dim M_s against the ambient rank count of the reference
    # presentation_hilbert on the oracle's whole window, and
    # x_v x_w = x_w x_v as maps M_s -> M_{s+2}
    rng = random.Random(seed + 1)
    modules = [random_presentation(rng, PolyRing(3, GF32003)) for _ in range(6)]
    modules += [random_presentation(rng, Q2) for _ in range(6)]
    modules += _acceptance_modules()
    products = 0
    for M in modules:
        MQ = present_over_Q(M)
        lo, hi = betti_oracle(M).window
        P = GradedPieces(MQ, lo - 1, hi + 1)
        for s in range(lo - 2, hi + 3):
            assert P.dim(s) == (presentation_hilbert(MQ, s) if lo - 1 <= s <= hi + 1 else 0)
        for s in range(lo - 1, hi):
            for v in range(P.ring.nvars):
                m = P.mult_matrix(v, s)
                assert len(m) == P.dim(s + 1) and all(len(r) == P.dim(s) for r in m)
            for v, w in combinations(range(P.ring.nvars), 2):
                vw = _product(P.field, P.mult_matrix(v, s + 1), P.mult_matrix(w, s), P.dim(s))
                wv = _product(P.field, P.mult_matrix(w, s + 1), P.mult_matrix(v, s), P.dim(s))
                assert vw == wv, (M, s, v, w)
                products += any(any(r) for r in vw)
    assert products > 0
    # hilbert_function over the ci3 ring, through present_over_Q, against the
    # reference's count in standard monomials mod (z); and over QQ
    A = ci3_setup()[0]
    modules = [random_presentation(rng, A, max_deg=2) for _ in range(4)]
    modules += [random_presentation(rng, PolyRing(d, QQ)) for d in (2, 2, 3)]
    for M in modules:
        lo = min(M.cover.twists) - 1
        assert hilbert_function(M, lo, lo + 8) == [
            presentation_hilbert(M, s) for s in range(lo, lo + 9)
        ], M


def test_resolve_over_A_euler_characteristic(seed):
    # sum_{i <= cap} (-1)^i dim (F_i)_s = dim M_s where ker d_cap vanishes:
    # for s up to the least twist of F_cap, since a minimal resolution has
    # ker d_cap inside m F_cap, and on the whole window when it is complete
    modules = [problem_file(name).module("M") for name in sorted(PROBLEM_VARIANTS)]
    rng = random.Random(seed)
    A = ci3_setup()[0]
    modules += [random_presentation(rng, A, max_deg=2) for _ in range(4)]
    # x3 is regular on A: A/(x3), a free module and the zero module have
    # finite resolutions over A
    modules += [cyclic_quotient(A, ["x3"]), free_presentation(A, (0, 2)), cyclic_quotient(A, ["1"])]
    checked = complete = 0
    for M in modules:
        R = resolve_over_A(M, cap=4)
        lo = min(M.cover.twists) - 1
        if R.complete:
            complete += 1
            top = max(t for F in R.modules for t in F.twists + (lo,)) + 3
        else:
            top = min(R.modules[-1].twists)
        hilb = hilbert_function(M, lo, top)
        for s in range(lo, top + 1):
            chi = sum((-1) ** i * len(piece_basis(F, s)) for i, F in enumerate(R.modules))
            assert chi == hilb[s - lo], (M, s)
            checked += 1
    assert checked > len(modules) and 0 < complete < len(modules)
