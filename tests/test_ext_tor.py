from __future__ import annotations

import random

import pytest

from helpers import (
    cyclic_quotient,
    hypersurface_setup,
    random_poly,
    random_presentation,
    reduced_hypersurface_setup,
    two_relation_setup,
    vec_sub,
)
import cmreg.ext_tor
from cmreg.ext_tor import ext, to_presentation, tor
from cmreg.fields import GF32003
from cmreg.freemod import (
    NEG_INF,
    GradedFreeModule,
    basis_vector,
    free_presentation,
    map_from_columns,
    presentation_hilbert,
    vec_degree,
    vec_is_zero,
    vec_mul_poly,
    vec_reduce_entries,
)
from cmreg.groebner import (
    DEFAULT_DEGREE_CAP,
    Elimination,
    kernel,
    submodule_contains,
    submodule_equal,
    submodule_gb,
)
from cmreg.rees import power_module, quotient_module
from cmreg.regularity import betti_oracle, present_over_Q, regularity
from cmreg.resolution import betti_table, resolve_over_A, resolve_over_Q
from cmreg.rings import PolyRing, QuotientRing


def _reg(E):
    return regularity(E.presentation)


def test_ext_hypersurface_gold():
    # A = K[X]/(X^2), M = N = A/(x): Ext^i(M, N) = N(i), reg = -i
    A, M, N, I = hypersurface_setup()
    for i in range(5):
        assert _reg(ext(M, N, i)) == -i


def test_ext_two_relation_gold():
    # A = K[X,Y]/(X^2, Y^3), M = N = A/(y):
    # Ext^{2i} = N(3i) with reg -3i+1, Ext^{2i+1} = N(3i+1) with reg -3i
    A, M, N, I = two_relation_setup()
    expected = {0: 1, 1: 0, 2: -2, 3: -3, 4: -5, 5: -6}
    for j, r in expected.items():
        assert _reg(ext(M, N, j)) == r


def test_ext_reduced_hypersurface_gold():
    # A = K[X,Y]/(XY), M = A/(x), N = (x): even Ext vanish, odd have reg -2i
    A, M, N, I = reduced_hypersurface_setup()
    assert _reg(ext(M, N, 0)) == NEG_INF
    assert _reg(ext(M, N, 1)) == -0
    assert _reg(ext(M, N, 2)) == NEG_INF
    assert _reg(ext(M, N, 3)) == -2
    assert ext(M, N, 2).presentation.cover.rank == 0 or _reg(ext(M, N, 2)) == NEG_INF


def test_tor_two_relation_gold():
    # Tor_{2i} = N(-3i) with reg 3i+1, Tor_{2i+1} = N(-3i-1) with reg 3i+2
    A, M, N, I = two_relation_setup()
    expected = {0: 1, 1: 2, 2: 4, 3: 5, 4: 7, 5: 8}
    for l, r in expected.items():
        assert _reg(tor(M, N, l)) == r


def test_tor_periodic_socle_gold():
    # over K[X,Y]/(X^2, Y^3) with U = V = A/(x): Tor_i = V(-i), reg = i + 2
    A, _, _, _ = two_relation_setup()
    U = cyclic_quotient(A, ["x1"])
    for i in range(6):
        assert _reg(tor(U, U, i)) == i + 2


def test_tor_reduced_hypersurface_gold():
    # over K[X,Y]/(XY) with M = A/(x), N = (x): even Tor have reg 2i+1 and
    # the odd ones are the zero module
    A, M, N, I = reduced_hypersurface_setup()
    from cmreg.groebner import presentation_is_zero

    for i in range(2):
        assert _reg(tor(M, N, 2 * i)) == 2 * i + 1
        odd = tor(M, N, 2 * i + 1)
        assert presentation_is_zero(odd.presentation)
        assert _reg(odd) == NEG_INF


def test_hom_and_tensor_identities():
    A, M, N, I = reduced_hypersurface_setup()
    # Ext^0(A, N) is N itself
    free = free_presentation(A, (0,))
    assert _reg(ext(free, N, 0)) == regularity(N)
    # Tor_0(M, N) = M tensor N; both cyclic here, so it is K(-1)
    assert _reg(tor(M, N, 0)) == 1
    # a free module has no higher Ext or Tor
    assert _reg(ext(free, N, 2)) == NEG_INF
    assert _reg(tor(free, N, 3)) == NEG_INF


def test_tor_symmetry():
    A, M, N, I = reduced_hypersurface_setup()
    for i in range(4):
        assert _reg(tor(M, N, i)) == _reg(tor(N, M, i))


def test_ext_target_shift():
    # Ext^i(M, N(a)) = Ext^i(M, N)(a), so regularities differ by a
    A, M, N, I = hypersurface_setup()
    for a in (-2, 1):
        for i in range(3):
            base = _reg(ext(M, N, i))
            assert _reg(ext(M, N.shift(a), i)) == base - a


@pytest.mark.parametrize(
    "setup", [hypersurface_setup, two_relation_setup, reduced_hypersurface_setup]
)
def test_ext_cells_match_the_betti_oracle(setup):
    # every cell of the acceptance grids at i_max = n_max = 2 (Ext indices
    # 0..5), both variants: the Koszul oracle, which is linear algebra only,
    # against the minimal resolution over Q
    A, M, N, I = setup()
    R = resolve_over_A(M, 6)
    nonzero = 0
    for n in range(3):
        for C in (power_module(I, n, N), quotient_module(N, I, n)):
            for index in range(6):
                P = ext(M, C, index, resolution=R).presentation
                oracle = betti_oracle(P)
                assert not oracle.partial
                assert oracle == betti_table(resolve_over_Q(present_over_Q(P)))
                nonzero += bool(oracle.entries)
    assert nonzero > 0


def test_to_presentation_builds_one_elimination_basis(monkeypatch):
    # the kernel of the generator map and the preimage of every boundary
    # share one elimination basis
    Q = PolyRing(2, GF32003)
    A = QuotientRing(Q, [Q.poly("x1*x2")])
    F = GradedFreeModule(A, (0,))
    x1, x2 = A.poly("x1"), A.poly("x2")
    calls = []
    real = cmreg.ext_tor.Elimination

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cmreg.ext_tor, "Elimination", counting)
    sub = to_presentation(F, [(Q.one,), (x1,)], [(x1,), (x2,), (x1 * x2,)])
    assert len(calls) == 1
    assert sub.generators == [(Q.one,)]
    assert sub.presentation.relations.columns() == [(x1,), (x2,)]


def _stacked_kernel(delta, extra_cols, cap=DEFAULT_DEGREE_CAP):
    """The former cycle computation, kept as a reference: stack the extra
    columns beside delta's, take the kernel, keep the delta coordinates."""
    cols = delta.columns() + [tuple(c) for c in extra_cols]
    twists = delta.source.twists + tuple(vec_degree(delta.target, c) for c in extra_cols)
    n = delta.source.rank
    out = []
    for v in kernel(map_from_columns(twists, delta.target, cols), cap=cap):
        w = vec_reduce_entries(delta.source, v[:n])
        if not vec_is_zero(w):
            out.append(w)
    return out


def _random_vectors(rng, F, count, lo):
    out = []
    for _ in range(count):
        s = lo + rng.randint(0, 2)
        v = tuple(random_poly(rng, F.ring, s - t) for t in F.twists)
        if not vec_is_zero(v):
            out.append(v)
    return out


def _solving_rings():
    Q2 = PolyRing(2, GF32003)
    Q3 = PolyRing(3, GF32003)
    return {
        "poly": Q2,
        "x1^2,x2^3": QuotientRing(Q2, [Q2.poly("x1^2"), Q2.poly("x2^3")]),
        "x1^2,x2^2-x1*x3": QuotientRing(Q3, [Q3.poly("x1^2"), Q3.poly("x2^2 - x1*x3")]),
    }


@pytest.mark.parametrize("name", list(_solving_rings()))
def test_solving_modulo_a_submodule(seed, name, monkeypatch):
    # Elimination(phi, modulo=S) against the stacked kernel it replaced
    ring = _solving_rings()[name]
    rng = random.Random(seed)
    outcomes = set()
    for trial in range(6):
        G = GradedFreeModule(ring, tuple(sorted(rng.randint(0, 1) for _ in range(2))))
        cols = _random_vectors(rng, G, rng.randint(1, 3), 1)
        S = _random_vectors(rng, G, rng.randint(0, 2), 1)
        if not cols:
            continue
        phi = map_from_columns(tuple(vec_degree(G, c) for c in cols), G, cols)
        span_S = submodule_gb(S, G)
        # kernel modulo S spans what the stacked kernel spans
        ker = kernel(phi, modulo=S)
        assert submodule_equal(ker, _stacked_kernel(phi, S), phi.source)
        for v in ker:
            assert submodule_contains(span_S, phi.apply(v))
        # preimage modulo S: phi(x) - b in S + (z)G, None iff b outside im + S
        elim = Elimination(phi, modulo=S)
        span_all = submodule_gb(cols + S, G)
        s = max(vec_degree(G, c) for c in cols + S) + 1
        rhs = [basis_vector(G, 0)] + _random_vectors(rng, G, 2, s)
        for c in cols + S:
            rhs.append(vec_mul_poly(c, random_poly(rng, ring, s - vec_degree(G, c))))
        for b in rhs:
            x = elim.preimage(b)
            outcomes.add(x is None)
            assert (x is None) == (not submodule_contains(span_all, b))
            if x is not None:
                assert submodule_contains(span_S, vec_sub(phi.apply(x), b))
    assert outcomes == {True, False}
    # Ext and Tor over cycles modulo the relations match the stacked cycles
    calls = []

    def stacked(delta, cap, modulo):
        calls.append(delta)
        return _stacked_kernel(delta, modulo, cap)

    window = range(-2, 6)
    modules = 0
    while modules < 3:
        M = random_presentation(rng, ring, max_deg=2)
        N = random_presentation(rng, ring, max_deg=2)
        if M.relations.source.rank == 0:
            continue  # a free M has no differential to take cycles of
        modules += 1
        R = resolve_over_A(M, cap=3)
        for fn in (ext, tor):
            for i in range(3):
                new = fn(M, N, i, resolution=R).presentation
                with monkeypatch.context() as mp:
                    mp.setattr(cmreg.ext_tor, "kernel", stacked)
                    old = fn(M, N, i, resolution=R).presentation
                assert new.generator_degrees == old.generator_degrees
                if new.relations.matrix != old.relations.matrix:
                    assert regularity(new) == regularity(old)
                hilb = [presentation_hilbert(new, t) for t in window]
                assert hilb == [presentation_hilbert(old, t) for t in window]
    assert calls
