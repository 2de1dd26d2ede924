from __future__ import annotations

import importlib
import random
from collections import Counter

from helpers import (
    ci3_setup,
    cyclic_quotient,
    hypersurface_setup,
    random_presentation,
    reduced_hypersurface_setup,
    two_relation_setup,
)
from cmreg.fields import GF32003, QQ
from cmreg.freemod import piece_basis, presentation_hilbert
from cmreg.regularity import betti_oracle, present_over_Q
from cmreg.resolution import betti_table, resolve_over_Q
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
        for s in range(window[0], window[1] + 1):
            chi = sum((-1) ** i * len(piece_basis(F, s)) for i, F in enumerate(R.modules))
            assert chi == presentation_hilbert(M, s), (M, s)
