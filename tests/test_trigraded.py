from __future__ import annotations

import ast
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmreg.trigraded as trigraded
from cmreg.freemod import NEG_INF
from cmreg.trigraded import (
    TrigradedFreeData,
    TrigradedRingSpec,
    _top_twist,
    _top_weight_sums,
    _weight_sums,
    bound_constants,
    component_bound,
    component_twist_count,
    component_twists,
    compositions,
    free_component_regularity,
    grid_bound_check,
    max_twist_bound_check,
)


def _random_spec(rng):
    d = rng.randint(1, 3)
    b = rng.randint(1, 3)
    c = rng.randint(1, 3)
    h = [rng.randint(1, 4) for _ in range(b)]
    g = [rng.randint(1, 4) for _ in range(c)]
    return TrigradedRingSpec(d, b, c, h, g)


def _random_data(rng, spec):
    levels = {0: [(0, 0, rng.randint(-3, 3))]}
    for l in range(1, min(spec.homological_range, 4) + 1):
        gens = []
        for _ in range(rng.randint(0, 2)):
            b1 = rng.randint(0, 2)
            b2 = rng.randint(0, 2)
            # a <= g1*b1 + h1*b2 + (c0 + l) keeps the data resolution-like:
            # twists grow by at most the step degrees along the resolution
            a = spec.g1 * b1 + spec.h1 * b2 + rng.randint(-3, 3) + l
            gens.append((b1, b2, a))
        if gens:
            levels[l] = gens
    return TrigradedFreeData(levels, spec)


def _reference_twists(spec, data, l, i, n):
    """The defining enumeration: one twist a + h.u + g.v per generator and
    pair of compositions (u, v), listed one by one."""
    out = []
    for b1, b2, a in data.level(l):
        if i < b1 or n < b2:
            continue
        for u in compositions(n - b2, spec.b):
            hu = sum(uj * hj for uj, hj in zip(u, spec.h))
            for v in compositions(i - b1, spec.c):
                out.append(a + hu + sum(vk * gk for vk, gk in zip(v, spec.g)))
    out.sort()
    return out


def _reference_specs(rng):
    """Seeded specs, the b = 0 and c = 0 corners and negative weights."""
    specs = [_random_spec(rng) for _ in range(20)]
    specs.append(TrigradedRingSpec(1, 0, 2, [], [3, 1]))  # b = 0: only n = b2 survives
    specs.append(TrigradedRingSpec(1, 2, 0, [2, 2], []))  # c = 0: only i = b1 survives
    specs.append(TrigradedRingSpec(1, 0, 0, [], []))  # both: only (b1, b2) itself
    specs.append(TrigradedRingSpec(2, 2, 2, [-1, -3], [0, -2]))  # negative weights
    specs.append(TrigradedRingSpec(1, 0, 3, [], [-2, 4, 1]))
    specs.append(TrigradedRingSpec(1, 3, 0, [-3, 2, 0], []))
    for _ in range(10):
        b, c = rng.randint(0, 3), rng.randint(0, 3)
        h = [rng.randint(-3, 4) for _ in range(b)]
        g = [rng.randint(-3, 4) for _ in range(c)]
        specs.append(TrigradedRingSpec(rng.randint(0, 2), b, c, h, g))
    return specs


def test_component_twists_match_reference_enumeration(seed):
    rng = random.Random(seed + 23)
    for spec in _reference_specs(rng):
        data = _random_data(rng, spec)
        for l in data.levels:
            for i in range(10):
                for n in range(10):
                    ref = _reference_twists(spec, data, l, i, n)
                    assert component_twists(spec, data, l, i, n) == ref
                    # the closed form of the top twist is the enumeration's max
                    top = _top_twist(spec, data.level(l), i, n)
                    assert top == max(ref, default=NEG_INF)


@given(st.lists(st.integers(-3, 6), max_size=4), st.integers(0, 10))
def test_weight_sums_shape(weights, m):
    sums = _weight_sums(tuple(weights), m)
    k = len(weights)
    assert type(sums) is tuple
    # the checks' top weight sums are the enumeration's maxima, for weights
    # in any order
    assert _top_weight_sums(tuple(weights), m) == tuple(
        max(_weight_sums(tuple(weights), t), default=NEG_INF) for t in range(m + 1)
    )
    if k == 0:
        assert sums == ((0,) if m == 0 else ())
        return
    # one entry per weak composition: stars and bars
    assert len(sums) == comb(m + k - 1, k - 1)
    assert min(sums) == m * min(weights)
    assert max(sums) == m * max(weights)


@given(st.integers(0, 8), st.integers(0, 4))
def test_compositions_cardinality(total, parts):
    out = compositions(total, parts)
    assert len(set(out)) == len(out)
    if parts == 0:
        assert out == ([()] if total == 0 else [])
        return
    assert len(out) == comb(total + parts - 1, parts - 1)
    for t in out:
        assert len(t) == parts and sum(t) == total and min(t) >= 0
    # colexicographic: reversed tuples ascend
    assert out == sorted(out, key=lambda t: t[::-1])


@pytest.mark.parametrize("parts", [0, 1, 2, 3])
@pytest.mark.parametrize("total", [-1, -2, -5])
def test_compositions_of_a_negative_total_are_empty(total, parts):
    assert compositions(total, parts) == []


def test_spec_sorts_weights_descending():
    spec = TrigradedRingSpec(2, 3, 2, [1, 4, 2], [3, 5])
    assert spec.h == (4, 2, 1) and spec.g == (5, 3)
    assert spec.h1 == 4 and spec.g1 == 5
    assert spec.homological_range == 7


def test_spec_rejects_non_integers():
    for bad in ("a", [2], 2.5, None, True):
        with pytest.raises(ValueError):
            TrigradedRingSpec(1, 1, 1, [bad], [3])
        with pytest.raises(ValueError):
            TrigradedRingSpec(1, 1, 1, [2], [bad])
        with pytest.raises(ValueError):
            TrigradedRingSpec(bad, 1, 1, [2], [3])
    with pytest.raises(ValueError):
        TrigradedRingSpec(1, 1.5, 1, [2], [3])
    with pytest.raises(ValueError):
        TrigradedRingSpec(1, 1, "1", [2], [3])
    with pytest.raises(ValueError):
        TrigradedRingSpec(-1, 1, 1, [2], [3])  # no negative variable count
    # integral floats, as JSON may spell them, are accepted as ints
    spec = TrigradedRingSpec(1.0, 1, 1, [2.0], [3])
    assert spec.d == 1 and spec.h == (2,) and type(spec.h1) is int
    # multidegrees are not truncated to integers either
    for bad in (2.5, "2", None):
        with pytest.raises(ValueError):
            TrigradedFreeData({0: [(0, 0, bad)]}, spec)
    assert TrigradedFreeData({0: [(0, 0, 2.0)]}, spec).level(0) == [(0, 0, 2)]
    # nor are level keys: a non-string key must be an integer
    for bad in (1.5, True, None):
        with pytest.raises(ValueError):
            TrigradedFreeData({0: [(0, 0, 0)], bad: [(0, 0, 1)]}, spec)
    assert TrigradedFreeData({0.0: [(0, 0, 1)]}, spec).level(0) == [(0, 0, 1)]


def test_data_validation():
    spec = TrigradedRingSpec(1, 1, 1, [2], [2])
    with pytest.raises(ValueError):
        TrigradedFreeData({5: [(0, 0, 0)]}, spec)
    with pytest.raises(ValueError):
        TrigradedFreeData({-1: [(0, 0, 0)]})
    with pytest.raises(ValueError):
        TrigradedFreeData({0: [(0, 0)]})
    # two keys naming one level: neither list is dropped silently
    for keys in (("1", "01"), (1, "1"), ("0", " 0")):
        with pytest.raises(ValueError):
            TrigradedFreeData({keys[0]: [(0, 0, 1)], keys[1]: [(0, 0, 9)]}, spec)
    with pytest.raises(ValueError):
        TrigradedFreeData({"1": [(0, 0, 1)], "01": []}, spec)
    # a string level key is ASCII digits only, though int() reads more
    for key in ("\u0661", "1_0", " +2 ", ""):
        with pytest.raises(ValueError):
            TrigradedFreeData({"0": [(0, 0, 0)], key: [(0, 0, 1)]})
    with pytest.raises(ValueError):
        TrigradedFreeData({0: [(0, 0, 0)], 1.5: [(0, 0, 1)], True: [(0, 0, 2)]}, spec)
    with pytest.raises(ValueError):
        TrigradedRingSpec(-1, 1, 1, [2], [2])
    with pytest.raises(ValueError):
        bound_constants(spec, TrigradedFreeData({1: [(0, 0, 0)]}))


def test_twist_count_matches_enumeration(seed):
    rng = random.Random(seed)
    for trial in range(25):
        spec = _random_spec(rng)
        data = _random_data(rng, spec)
        for l, gens in data.levels.items():
            for i in range(4):
                for n in range(4):
                    expected = sum(
                        component_twist_count(spec, b1, b2, i, n)
                        for b1, b2, a in gens
                    )
                    assert len(component_twists(spec, data, l, i, n)) == expected


def test_twists_invariant_under_weight_permutation(seed):
    rng = random.Random(seed + 3)
    for trial in range(10):
        spec = _random_spec(rng)
        data = _random_data(rng, spec)
        h = list(spec.h)
        g = list(spec.g)
        rng.shuffle(h)
        rng.shuffle(g)
        spec2 = TrigradedRingSpec(spec.d, spec.b, spec.c, h, g)
        for l in data.levels:
            for i in range(3):
                for n in range(3):
                    assert component_twists(spec, data, l, i, n) == component_twists(
                        spec2, data, l, i, n
                    )


def test_max_twist_bound_on_random_instances(seed):
    rng = random.Random(seed + 11)
    for trial in range(40):
        spec = _random_spec(rng)
        data = _random_data(rng, spec)
        for l in data.levels:
            for i in range(5):
                for n in range(5):
                    assert max_twist_bound_check(spec, data, l, i, n)


def _cell_definition(spec, data, imax, nmax):
    """Every cell's enumerated twists against the line g1*i + h1*n + c_l."""
    cs, _ = bound_constants(spec, data)
    return all(
        max(component_twists(spec, data, l, i, n), default=NEG_INF)
        <= spec.g1 * i + spec.h1 * n + cs[l]
        for l in data.levels
        for i in range(imax + 1)
        for n in range(nmax + 1)
    )


def _checks_agree_with_definition(spec, data, imax, nmax):
    expected = _cell_definition(spec, data, imax, nmax)
    assert grid_bound_check(spec, data, imax, nmax) == expected
    assert all(
        max_twist_bound_check(spec, data, l, i, n)
        for l in data.levels
        for i in range(imax + 1)
        for n in range(nmax + 1)
    ) == expected
    return expected


def test_grid_check_matches_the_cell_definition(seed, monkeypatch):
    rng = random.Random(seed + 29)
    cases = []
    for spec in _reference_specs(rng):
        data = _random_data(rng, spec)
        # the generators reach b1, b2 = 2, so grids below that are vacuous
        # for them, and the 0 x 0 grid holds level 0's generator alone
        for imax, nmax in ((0, 0), (1, 0), (0, 1), (1, 2), (3, 3), (6, 4)):
            cases.append((spec, data, imax, nmax))
            assert _checks_agree_with_definition(spec, data, imax, nmax)
    # level 1 lies outside the 4 x 4 grid and enters the 5 x 5 one; level 2
    # starts below the grid, so s = i - b1 and t = n - b2 start above 0
    spec = TrigradedRingSpec(1, 1, 2, [3], [2, 1])
    edges = TrigradedFreeData(
        {0: [(0, 0, 0)], 1: [(5, 1, 99), (1, 5, 9)], 2: [(-2, 1, 4), (0, -3, 1)]}, spec
    )
    for grid in ((4, 4), (5, 5)):
        cases.append((spec, edges, *grid))
        assert _checks_agree_with_definition(spec, edges, *grid)
    # s = i - b1 >= 2 here: with the i-slope set above g1 below, s = 0 and 1
    # would read room the grid does not hold
    spec = TrigradedRingSpec(1, 2, 2, [3, 1], [2, 1])
    below = TrigradedFreeData({0: [(0, 2, 0)], 1: [(-2, 1, 4)]}, spec)
    cases.append((spec, below, 4, 2))
    assert _checks_agree_with_definition(spec, below, 4, 2)
    # with the line's n-slope read off the smallest weight, both checks must
    # see the enumerated twists rise above it; an i-slope too steep to be
    # reached leaves room that only the cells the grid holds may use
    monkeypatch.setattr(TrigradedRingSpec, "h1", property(lambda self: min(self.h, default=0)))
    for g1 in (lambda self: min(self.g, default=0), lambda self: max(self.g, default=0) + 1):
        monkeypatch.setattr(TrigradedRingSpec, "g1", property(g1))
        verdicts = [_checks_agree_with_definition(*case) for case in cases]
        assert not all(verdicts) and any(verdicts)


def test_bound_checks_do_not_read_the_closed_form():
    """Neither check reaches `_top_twist`, the closed form they test."""
    tree = ast.parse(Path(trigraded.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reach(root):
        todo, seen = [root], set()
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(
                    node.id for node in ast.walk(defs[name])
                    if isinstance(node, ast.Name) and node.id in defs
                )
        return seen

    # the walk finds the closed form where it is read
    assert "_top_twist" in reach("free_component_regularity")
    for check in ("max_twist_bound_check", "grid_bound_check"):
        assert "_top_weight_sums" in reach(check)
        assert "_top_twist" not in reach(check)


def test_grid_check_with_many_weights():
    # 25 weights a side: listing the compositions of 40 into 25 parts
    # (C(64, 24) of them) is out of reach, taking the parts one at a time is not
    spec = TrigradedRingSpec(0, 25, 25, range(25), range(-12, 13))
    data = TrigradedFreeData({0: [(0, 0, 1)], 3: [(2, 1, 30), (1, 4, 7)]}, spec)
    assert grid_bound_check(spec, data, 40, 40)
    assert max_twist_bound_check(spec, data, 3, 40, 40)


def test_component_bound_dominates_level_zero(seed):
    rng = random.Random(seed + 17)
    for trial in range(20):
        spec = _random_spec(rng)
        data = _random_data(rng, spec)
        cs, e = bound_constants(spec, data)
        # e = max(c_l - l) is at least the level-zero constant
        assert e >= cs[0]
        for i in range(4):
            for n in range(4):
                r = free_component_regularity(spec, data, i, n)
                if r is not NEG_INF:
                    assert r <= component_bound(spec, data, i, n)


def test_free_tightness_single_generator():
    # one generator (0, 0, a): the component twist is a + max-weight picks,
    # and the bound with e = a is met with equality on the extreme ray
    spec = TrigradedRingSpec(1, 1, 1, [3], [2])
    data = TrigradedFreeData({0: [(0, 0, 5)]}, spec)
    cs, e = bound_constants(spec, data)
    assert cs == {0: 5} and e == 5
    for i in range(4):
        for n in range(4):
            r = free_component_regularity(spec, data, i, n)
            assert r == spec.g1 * i + spec.h1 * n + 5
            assert r == component_bound(spec, data, i, n)


def test_hypersurface_like_spec():
    # d = 1, b = 0, c = 1: components are single twists a + v*g1
    spec = TrigradedRingSpec(1, 0, 1, [], [2])
    data = TrigradedFreeData({0: [(0, 0, 0)]}, spec)
    assert spec.h1 == 0
    cs, e = bound_constants(spec, data)
    assert cs == {0: 0} and e == 0
    for i in range(4):
        assert component_twists(spec, data, 0, i, 0) == [2 * i]
        # n > 0 components vanish: no h-variables to absorb the N-grading
        assert component_twists(spec, data, 0, i, 1) == []
