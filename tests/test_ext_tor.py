from __future__ import annotations

from helpers import (
    cyclic_quotient,
    hypersurface_setup,
    reduced_hypersurface_setup,
    two_relation_setup,
)
import cmreg.groebner
from cmreg.ext_tor import ext, to_presentation, tor
from cmreg.fields import GF32003
from cmreg.freemod import NEG_INF, GradedFreeModule, free_presentation
from cmreg.regularity import regularity
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


def test_to_presentation_builds_one_elimination_basis(monkeypatch):
    # the kernel of the generator map and the preimage of every boundary
    # share one elimination basis
    Q = PolyRing(2, GF32003)
    A = QuotientRing(Q, [Q.poly("x1*x2")])
    F = GradedFreeModule(A, (0,))
    x1, x2 = A.poly("x1"), A.poly("x2")
    calls = []
    real = cmreg.groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cmreg.groebner, "buchberger", counting)
    sub = to_presentation(F, [(Q.one,), (x1,)], [(x1,), (x2,), (x1 * x2,)])
    assert len(calls) == 1
    assert sub.generators == [(Q.one,)]
    assert sub.presentation.relations.columns() == [(x1,), (x2,)]
