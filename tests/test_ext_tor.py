from __future__ import annotations

import random

import pytest

from helpers import (
    PROBLEM_VARIANTS,
    ci3_setup,
    cyclic_quotient,
    hypersurface_setup,
    problem_file,
    random_poly,
    random_presentation,
    reduced_hypersurface_setup,
    two_relation_setup,
    vec_sub,
)
import cmreg.ext_tor
from cmreg.cli import main
from cmreg.errors import InternalConsistencyError
from cmreg.ext_tor import SubquotientPresentation, ext, to_presentation, tor
from cmreg.fields import GF32003
from cmreg.freemod import (
    NEG_INF,
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    basis_vector,
    free_presentation,
    map_from_columns,
    vec_degree,
    vec_is_zero,
    vec_mul_poly,
    vec_reduce_entries,
    vec_scale,
)
from cmreg.groebner import (
    DEFAULT_DEGREE_CAP,
    Elimination,
    kernel,
    minimal_generators,
    submodule_contains,
    submodule_equal,
    submodule_gb,
)
from cmreg.rees import power_module, quotient_module
from cmreg.regularity import betti_oracle, hilbert_function, present_over_Q, regularity
from cmreg.resolution import (
    FreeResolution,
    betti_table,
    minimal_presentation,
    resolve_over_A,
    resolve_over_Q,
)
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


@pytest.mark.parametrize(
    "setup", [hypersurface_setup, two_relation_setup, reduced_hypersurface_setup, ci3_setup]
)
def test_tor_symmetry_on_whole_tables(setup, seed):
    # Tor_i(M, N) = Tor_i(N, M) as graded modules, so the minimal resolutions
    # over Q of the two presentations have one Betti table, and the Hilbert
    # functions agree; on the setup's pair, then on seeded ones (max_deg=2
    # keeps clear of regularity's heavy tail over the ci3 ring)
    A, M, N, I = setup()
    rng = random.Random(seed)
    pairs = [(M, N)] + [
        (random_presentation(rng, A, max_deg=2), random_presentation(rng, A, max_deg=2))
        for _ in range(3)
    ]
    for M, N in pairs:
        for i in range(4):
            T, U = tor(M, N, i).presentation, tor(N, M, i).presentation
            tables = [betti_table(resolve_over_Q(present_over_Q(P))) for P in (T, U)]
            assert tables[0] == tables[1], (i, str(tables[0]), str(tables[1]))
            low = min(T.generator_degrees + U.generator_degrees, default=0)
            assert hilbert_function(T, low, low + 5) == hilbert_function(U, low, low + 5), i


def test_ext_target_shift():
    # Ext^i(M, N(a)) = Ext^i(M, N)(a), so regularities differ by a
    A, M, N, I = hypersurface_setup()
    for a in (-2, 1):
        for i in range(3):
            base = _reg(ext(M, N, i))
            assert _reg(ext(M, N.shift(a), i)) == base - a


@pytest.mark.parametrize(
    "setup", [hypersurface_setup, two_relation_setup, reduced_hypersurface_setup, ci3_setup]
)
def test_ext_source_shift(setup, seed):
    # Ext^i(M(a), N) = Ext^i(M, N)(-a) as presentations, so the regularity
    # moves by +a: the setup's modules in both orders, then seeded ones
    A, M, N, I = setup()
    rng = random.Random(seed)
    pairs = [(M, N), (N, M)] + [
        (random_presentation(rng, A, max_deg=2), random_presentation(rng, A, max_deg=2))
        for _ in range(3)
    ]
    for M, N in pairs:
        for i in range(4):
            base = ext(M, N, i).presentation
            reg = regularity(base)
            for a in (-2, 3):
                shifted = ext(M.shift(a), N, i).presentation
                assert shifted == base.shift(-a)
                assert regularity(shifted) == reg + a


@pytest.mark.parametrize("name", sorted(PROBLEM_VARIANTS))
def test_ext_repeats_along_a_periodic_resolution(name):
    # where d_k, d_{k+1} are d_{k-2}, d_{k-1} twisted by s, Ext^k is Ext^{k-2}
    # twisted down by s, as presentations: the sweep's grid on each shipped
    # problem file for n <= 2, every variant the benchmark sweeps there
    pf = problem_file(name)
    M, N, I = pf.module("M"), pf.module("N"), pf.ideal("I")
    R = resolve_over_A(M, cap=2 * pf.params["imax"] + 2)
    window = [(k, s) for k in range(R.length) if (s := R.repeats(k))]
    assert window
    for n in range(3):
        for variant in PROBLEM_VARIANTS[name]:
            C = power_module(I, n, N) if variant == "power" else quotient_module(N, I, n)
            for k, s in window:
                E = ext(M, C, k, resolution=R).presentation
                before = ext(M, C, k - 2, resolution=R).presentation
                assert E == before.shift(s)
                assert regularity(E) == regularity(before) - s


@pytest.mark.parametrize(
    "setup", [hypersurface_setup, two_relation_setup, reduced_hypersurface_setup, ci3_setup]
)
def test_ext_cells_match_the_betti_oracle(setup):
    # every cell of the acceptance grids and of ci3.prob's grid at
    # i_max = n_max = 2 (Ext indices 0..5), both variants: the Koszul oracle,
    # which is linear algebra only, against the minimal resolution over Q
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
    # one elimination basis modulo the boundaries gives every relation
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
    cover = sub.presentation.cover
    assert submodule_equal(sub.presentation.relations.columns(), [(x1,), (x2,)], cover)
    # e2 is a minimal generator of Z = F that lies in B, so Z/B = A/(x1)
    # is covered by e1 alone
    F2 = GradedFreeModule(A, (0, 0))
    e1, e2 = basis_vector(F2, 0), basis_vector(F2, 1)
    sub = to_presentation(F2, [e1, e2], [e2, vec_mul_poly(e1, x1)])
    assert len(calls) == 2
    assert sub.generators == [e1]
    cover = sub.presentation.cover
    assert submodule_equal(sub.presentation.relations.columns(), [(x1,)], cover)


def _to_presentation_with_preimages(ambient, cycles, boundaries, degree_cap=DEFAULT_DEGREE_CAP):
    """The former to_presentation, kept as a reference: the minimal
    generators of Z alone are the cover, and the relations are the kernel
    of the generator map plus one preimage per boundary."""
    zmin = minimal_generators(cycles, ambient).columns()
    if not zmin:
        return SubquotientPresentation([], free_presentation(ambient.ring, ()))
    twists = tuple(vec_degree(ambient, v) for v in zmin)
    zmap = map_from_columns(twists, ambient, zmin)
    elim = Elimination(zmap, degree_cap)
    rel_cols = elim.kernel()
    for b in boundaries:
        b = vec_reduce_entries(ambient, b)
        if vec_is_zero(b):
            continue
        coords = elim.preimage(b)
        assert coords is not None, "boundary element is not a combination of the cycles"
        coords = vec_reduce_entries(zmap.source, coords)
        if not vec_is_zero(coords):
            rel_cols.append(coords)
    rel_twists = tuple(vec_degree(zmap.source, c) for c in rel_cols)
    pres = ModulePresentation(map_from_columns(rel_twists, zmap.source, rel_cols))
    return SubquotientPresentation(zmin, pres)


def _assert_same_module_no_larger(new, old):
    """new presents the module old does, with no more generators or
    relations, and is minimal: minimal_presentation keeps its cover twists
    and all of its relations."""
    assert hilbert_function(new, -10, 7) == hilbert_function(old, -10, 7)
    assert new.cover.rank <= old.cover.rank
    assert new.relations.source.rank <= old.relations.source.rank
    pruned = minimal_presentation(new)
    assert pruned.generator_degrees == new.generator_degrees
    assert pruned.relations.source.rank == new.relations.source.rank
    assert regularity(new) == regularity(old)


@pytest.mark.parametrize(
    "setup", [hypersurface_setup, two_relation_setup, reduced_hypersurface_setup]
)
def test_to_presentation_matches_the_preimage_reference(seed, setup):
    # seeded subquotients Z/B of a random module's cover: B holds the
    # module's relations and a multiple of one generator of Z, in every
    # other trial a scalar one, so that this generator lies in B
    ring = setup()[0]
    rng = random.Random(seed)
    smaller = 0
    for trial in range(8):
        N = random_presentation(rng, ring)
        F, psi = N.cover, N.relations.columns()
        gens = _random_vectors(rng, F, rng.randint(1, 3), min(F.twists))
        if not gens:
            continue
        if trial % 2:
            extra = vec_mul_poly(gens[0], random_poly(rng, ring, 1))
        else:
            extra = vec_scale(gens[0], ring.base.field(rng.randint(1, 3)))
        boundaries = psi + ([] if vec_is_zero(extra) else [extra])
        cycles = gens + boundaries
        new = to_presentation(F, cycles, boundaries).presentation
        old = _to_presentation_with_preimages(F, cycles, boundaries).presentation
        _assert_same_module_no_larger(new, old)
        smaller += new.cover.rank < old.cover.rank
    assert smaller > 0


def test_ext_matches_the_preimage_reference_on_random_ci_modules(seed, monkeypatch):
    # 12 seeded module pairs over A = K[x1,x2,x3]/(x1^2, x2^2 - x1*x3),
    # Ext^0..Ext^2: the same modules as with the former to_presentation,
    # never with more generators or relations
    Q = PolyRing(3, GF32003)
    A = QuotientRing(Q, [Q.poly("x1^2"), Q.poly("x2^2 - x1*x3")])
    rng = random.Random(seed)
    for pair in range(12):
        M = random_presentation(rng, A, max_deg=2)
        N = random_presentation(rng, A, max_deg=2)
        R = resolve_over_A(M, cap=3)
        for i in range(3):
            new = ext(M, N, i, resolution=R).presentation
            with monkeypatch.context() as mp:
                mp.setattr(cmreg.ext_tor, "to_presentation", _to_presentation_with_preimages)
                old = ext(M, N, i, resolution=R).presentation
            _assert_same_module_no_larger(new, old)


def test_ext_rejects_a_resolution_that_is_not_a_complex(tmp_path, monkeypatch, capsys):
    # d_1 = (x2) and d_2 = (x1) over K[x1,x2]/(x1^2, x2^3): d_1 d_2 = x1*x2,
    # so the boundaries at index 1 are not cycles
    A, M, N, I = two_relation_setup()
    F = [GradedFreeModule(A, (t,)) for t in range(3)]
    d1 = GradedMap(F[1], F[0], [[A.poly("x2")]])
    d2 = GradedMap(F[2], F[1], [[A.poly("x1")]])
    R = FreeResolution(A, F, [d1, d2])
    assert R.is_complex_at(1) is False
    for fn in (ext, tor):
        with pytest.raises(InternalConsistencyError):
            fn(M, N, 1, resolution=R)
        fn(M, N, 0, resolution=R)  # level 0 has no boundaries from d_1 d_2
    prob = tmp_path / "two.prob"
    prob.write_text(
        "ring d=2 char=32003\nquotient: x1^2; x2^3\n"
        "module M: targets [0]; relations [[x2]]\n"
    )
    monkeypatch.setattr(cmreg.ext_tor, "resolve_over_A", lambda *a, **k: R)
    argv = [str(prob), "--module", "M", "--coeff", "M", "--index", "1"]
    assert main(["ext"] + argv) == 4
    assert main(["tor"] + argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("cmreg: internal consistency:") for e in err)


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
                assert hilbert_function(new, -2, 5) == hilbert_function(old, -2, 5)
    assert calls
