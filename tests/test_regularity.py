from __future__ import annotations

import random

from helpers import cyclic_quotient, random_presentation, random_ses
from cmreg.fields import GF32003
from cmreg.freemod import (
    NEG_INF,
    GradedFreeModule,
    ModulePresentation,
    free_presentation,
    map_from_columns,
)
from cmreg.regularity import betti_oracle, present_over_Q, regularity
from cmreg.rings import PolyRing

Q2 = PolyRing(2, GF32003)


def test_regularity_known_values():
    assert regularity(cyclic_quotient(Q2, ["x1", "x2"])) == 0
    assert regularity(cyclic_quotient(Q2, ["x1^3"])) == 2
    assert regularity(cyclic_quotient(Q2, ["x1^2", "x1*x2"])) == 1
    assert regularity(free_presentation(Q2, ())) == NEG_INF
    for j in range(-5, 6):
        assert regularity(free_presentation(Q2, (j,))) == j


def test_regularity_of_quotient_ring_modules():
    Q1 = PolyRing(1, GF32003)
    A = Q1.quotient([Q1.poly("x1^2")])
    # A-modules are measured through their presentation over the cover ring
    assert regularity(free_presentation(A, (0,))) == 1
    assert regularity(cyclic_quotient(A, ["x1"])) == 0


def test_shift_law(seed):
    rng = random.Random(seed)
    for trial in range(8):
        M = random_presentation(rng, Q2)
        r = regularity(M)
        for a in (-2, -1, 1, 3):
            expected = NEG_INF if r == NEG_INF else r - a
            assert regularity(M.shift(a)) == expected


def test_present_over_Q_passthrough_and_pushforward():
    M = cyclic_quotient(Q2, ["x1^2"])
    assert present_over_Q(M) is M
    Q1 = PolyRing(1, GF32003)
    A = Q1.quotient([Q1.poly("x1^3")])
    MQ = present_over_Q(free_presentation(A, (0, 1)))
    assert MQ.ring is Q1
    assert MQ.cover.twists == (0, 1)
    # one cube relation per cover basis vector
    assert MQ.relations.source.rank == 2


def test_a_zero_relation_column_keeps_its_declared_twist():
    # M = coker[x2, 0] over A = K[x1,x2]/(x1^2), the zero column of twist 3:
    # over Q it keeps twist 3, where re-deriving twists from the columns
    # gave None and the oracle failed on it
    A = Q2.quotient([Q2.poly("x1^2")])
    F = GradedFreeModule(A, (0,))
    M = ModulePresentation(map_from_columns((1, 3), F, [(Q2.poly("x2"),), (Q2.zero,)]))
    M1 = ModulePresentation(map_from_columns((1,), F, [(Q2.poly("x2"),)]))
    assert present_over_Q(M).relations.source.twists == (1, 3, 2)
    table = betti_oracle(M)
    assert table == betti_oracle(M1)
    assert table.entries == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
    assert table.regularity() == regularity(M) == 1


def test_short_exact_sequence_regularity_bounds(seed):
    # for 0 -> U -> M -> M'' -> 0:
    #   reg M  <= max(reg U, reg M'')
    #   reg M'' <= max(reg U - 1, reg M)
    rng = random.Random(seed)
    checked = 0
    for trial in range(20):
        ses = random_ses(rng, Q2)
        if ses is None:
            continue
        U, M, Mq = ses
        ru, rm, rq = regularity(U), regularity(M), regularity(Mq)
        assert rm <= max(ru, rq)
        assert rq <= max(ru - 1, rm)
        checked += 1
    assert checked >= 10


def test_short_exact_sequence_over_quotient_ring(seed):
    rng = random.Random(seed + 1)
    A = Q2.quotient([Q2.poly("x1*x2")])
    checked = 0
    for trial in range(8):
        ses = random_ses(rng, A)
        if ses is None:
            continue
        U, M, Mq = ses
        ru, rm, rq = regularity(U), regularity(M), regularity(Mq)
        assert rm <= max(ru, rq)
        assert rq <= max(ru - 1, rm)
        checked += 1
    assert checked >= 4
