from __future__ import annotations

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
from cmreg import regularity, sweeps
from cmreg.fields import GF32003, QQ, PrimeField
from cmreg.freemod import free_presentation
from cmreg.regularity import GradedPieces, betti_oracle, hilbert_function, present_over_Q
from cmreg.resolution import betti_table, resolve_over_A, resolve_over_Q
from cmreg.rings import PolyRing

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
    A = Q2.quotient([Q2.poly("x1*x2")])
    for trial in range(8):
        M = random_presentation(rng, A)
        assert betti_oracle(M) == _resolution_betti(M)


def test_oracle_char_zero():
    Q = PolyRing(2, QQ)
    M = cyclic_quotient(Q, ["x1^2", "x1*x2"])
    assert betti_oracle(M) == _resolution_betti(M)


def test_oracle_partial_window_flag(monkeypatch):
    M = cyclic_quotient(Q2, ["x1^3"])
    full = betti_oracle(M)
    assert not full.partial
    # no certificate: the table is every beta_ij up to the search's cap,
    # the top twist 3 (the relation's) + d + 2 = 7
    monkeypatch.setattr(regularity, "_certifies", lambda pieces, m, forms: False)
    uncertified = betti_oracle(M)
    assert (uncertified.window, uncertified.partial) == ((0, 7), True)
    assert uncertified == full


def test_the_search_starts_where_the_relations_allow(monkeypatch):
    # S/(x1^3 + x2^3) is generated in degree 0, and x1, x2 pass the
    # injectivity and vanishing tests already at m = 0, but reg = 2: the
    # relation in degree 3 puts the search's first m at 2
    M = cyclic_quotient(Q2, ["x1^3 + x2^3"])
    x1_x2 = [[GF32003.one, GF32003.zero], [GF32003.zero, GF32003.one]]
    real = regularity._certifies
    assert real(GradedPieces(M, 2), 0, x1_x2)
    # the vanishing test is what sees a generator above m: S(-1) passes both
    # injectivity tests at m = 0, and M/(x1, x2)M is K in degree 1
    assert not real(GradedPieces(free_presentation(Q2, (1,)), 2), 0, x1_x2)
    tried = []

    def recording(pieces, m, forms):
        tried.append((m, real(pieces, m, forms)))
        return tried[-1][1]

    monkeypatch.setattr(regularity, "_certifies", recording)
    table = betti_oracle(M)
    assert tried == [(2, True)]
    assert table.entries == {(0, 0): 1, (1, 3): 1}
    assert (table.window, table.partial) == ((0, 4), False)


def test_the_certificate_fails_below_the_regularity(seed):
    # whatever forms are drawn, no m in [m0, reg) is certified
    rng = random.Random(seed + 5)
    checked = 0
    for ring in (Q2, PolyRing(3, GF32003), PolyRing(2, PrimeField(3))):
        for _ in range(10):
            M = random_presentation(rng, ring, max_rels=3)
            reg = _resolution_betti(M).regularity()
            MQ = present_over_Q(M)
            pieces = GradedPieces(MQ, max(reg, _m0(M)) + 2)
            for m in range(_m0(M), reg):
                for k in range(3):
                    forms = regularity._forms(ring.field, ring.nvars, random.Random(k))
                    assert not regularity._certifies(pieces, m, forms), (M, m, forms)
                    checked += 1
    assert checked >= 30


def _oracle_with_form_seed(monkeypatch, M, form_seed):
    monkeypatch.setattr(regularity, "_FORM_SEED", form_seed)
    return betti_oracle(M)


def _clipped(table, hi):
    return {(i, j): b for (i, j), b in table.entries.items() if j <= hi}


def test_oracle_does_not_depend_on_the_characteristic(seed, monkeypatch):
    # certified tables equal the minimal resolution's over small fields and
    # QQ, and two form seeds give equal tables; an uncertified (partial)
    # table still equals the resolution's below its window top
    rng = random.Random(seed + 9)
    partial = Counter()
    for field in (PrimeField(2), PrimeField(3), PrimeField(7), QQ):
        for d in (2, 3):
            ring = PolyRing(d, field)
            for _ in range(6):
                M = random_presentation(rng, ring, max_rels=3)
                truth = _resolution_betti(M)
                tables = [_oracle_with_form_seed(monkeypatch, M, k) for k in (0, 1)]
                for table in tables:
                    partial[field] += table.partial
                    if table.partial:
                        assert table.entries == _clipped(truth, table.window[1]), M
                    else:
                        assert table == truth, M
                hi = min(t.window[1] for t in tables)
                assert _clipped(tables[0], hi) == _clipped(tables[1], hi), M
    # partial counts over GF(2), GF(3), GF(7) and QQ at the default seed:
    # 1, 0, 0 and 0 of 24 tables each
    assert sum(partial.values()) <= 8, partial


def test_oracle_builds_each_koszul_matrix_once(monkeypatch):
    built = Counter()
    real = regularity._koszul_matrix

    def counting(pieces, i, j):
        built[i, j] += 1
        return real(pieces, i, j)

    monkeypatch.setattr(regularity, "_koszul_matrix", counting)
    Q3 = PolyRing(3, GF32003)
    M = cyclic_quotient(Q3, ["x1^2", "x2*x3", "x1*x3^2"])
    table = betti_oracle(M)
    assert built and max(built.values()) == 1
    # d_1 .. d_3 for 3 variables on the certified strip lo <= j - i <= m of
    # the window (lo, m + 3), nothing more
    lo, hi = table.window
    m = hi - 3
    assert not table.partial and m == table.regularity() == 2
    strip = {(i, s + i) for i in range(1, 4) for s in range(lo, m + 1)}
    assert set(built) == strip
    assert table == _resolution_betti(M)


def _ci3_sweep_ext_modules(monkeypatch):
    """The Ext modules whose regularity a ci3 sweep at i_max = n_max = 1
    computes."""
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
        # the reference oracle's window reaches above the certified one
        window = ref.betti_oracle(M).window
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


def _m0(M):
    """The least m with the Q-presentation's generators in degrees <= m and
    its relations in degrees <= m + 1."""
    MQ = present_over_Q(M)
    return max(list(MQ.cover.twists) + [t - 1 for t in MQ.relations.source.twists])


def _assert_certified(M):
    """betti_oracle(M) against the reference: equal entries; the reference's
    window when no certificate was found, and otherwise the window
    (lo, m + d) of a certified m >= m0 that bounds the regularity, below
    the reference's top."""
    new, old = betti_oracle(M), ref.betti_oracle(M)
    assert new.entries == old.entries, M
    if new.partial:
        assert new.window == old.window, M
        return new
    lo, hi = new.window
    m = hi - M.ring.nvars
    assert lo == old.window[0] and hi <= old.window[1], M
    assert m >= max(_m0(M), _resolution_betti(M).regularity()), M
    return new


def test_oracle_matches_the_ambient_reference(seed, monkeypatch):
    # pieces built degree by degree on a certified window against pieces
    # cut out of the ambient monomial basis on the reference's window:
    # equal Betti tables; windows and partial flags by the certified rule
    rng = random.Random(seed)
    Q3 = PolyRing(3, GF32003)
    modules = [random_presentation(rng, Q3) for _ in range(8)]
    modules += [random_presentation(rng, PolyRing(3, QQ)) for _ in range(2)]
    modules += [random_presentation(rng, Q2) for _ in range(12)]
    modules.append(free_presentation(Q3, (-2, 0, -1)))
    modules.append(cyclic_quotient(Q3, ["1"]))  # a unit relation: M = 0
    # the betti_oracle_q3 benchmark's 13 modules, up to its diagonal rescaling
    draws = random.Random(20260825)
    modules += [random_presentation(draws, Q3, max_rels=3) for _ in range(13)]
    modules += _acceptance_modules()
    full = [_assert_certified(M) for M in modules]
    # over GF(32003) the forms pass at the first m that can pass
    for M, table in zip(modules, full):
        if M.ring.field == GF32003:
            assert not table.partial
            assert table.window[1] - M.ring.nvars == max(
                _m0(M), _resolution_betti(M).regularity()
            ), M
    # with no certificate the table is the reference's, on its window
    monkeypatch.setattr(regularity, "_certifies", lambda pieces, m, forms: False)
    for M in modules:
        new, old = betti_oracle(M), ref.betti_oracle(M)
        assert (new.entries, new.window) == (old.entries, old.window), M
        assert new.partial or new.window is None, M


def _product(field, A, B, ncols):
    """The matrix product A B, with ncols columns even where B has no rows."""
    return [
        [reduce(field.add, (field.mul(a, B[k][c]) for k, a in enumerate(row)), field.zero)
         for c in range(ncols)]
        for row in A
    ]


def test_pieces_match_the_hilbert_function_and_commute(seed):
    # dim M_s against the ambient rank count of the reference
    # presentation_hilbert on the reference oracle's whole window, and
    # x_v x_w = x_w x_v as maps M_s -> M_{s+2}; pieces extended one degree
    # at a time equal pieces built at once
    rng = random.Random(seed + 1)
    modules = [random_presentation(rng, PolyRing(3, GF32003)) for _ in range(6)]
    modules += [random_presentation(rng, Q2) for _ in range(6)]
    modules += _acceptance_modules()
    products = 0
    for M in modules:
        MQ = present_over_Q(M)
        lo, hi = ref.betti_oracle(M).window
        P = GradedPieces(MQ, hi + 1)
        stepped = GradedPieces(MQ, lo - 1)
        for top in range(lo, hi + 2):
            stepped.extend(top)
        for s in range(lo - 1, hi + 1):
            assert stepped.dim(s) == P.dim(s)
            for v in range(P.ring.nvars):
                assert stepped.mult_matrix(v, s) == P.mult_matrix(v, s), (M, s, v)
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
