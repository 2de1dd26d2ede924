from __future__ import annotations

import json
import random

import pytest

from helpers import (
    PROBLEM_VARIANTS,
    PROBLEMS,
    ci3_setup,
    cyclic_quotient,
    hypersurface_setup,
    random_presentation,
    reduced_hypersurface_setup,
    two_relation_setup,
)
import cmreg.sweeps
from cmreg.cli import main
from cmreg.errors import DegreeCapExceeded
from cmreg.ext_tor import ext
from cmreg.fields import GF32003, QQ, PrimeField
from cmreg.freemod import NEG_INF
from cmreg.groebner import DEFAULT_DEGREE_CAP
from cmreg.rees import IdealData, power_module, quotient_module, rho_upper
from cmreg.regularity import betti_oracle, present_over_Q, regularity
from cmreg.resolution import betti_table, resolve_over_A, resolve_over_Q
from cmreg.rings import PolyRing, QuotientRing
from cmreg.sweeps import (
    CAP,
    GRID_LIMITATION_NOTE,
    PARITY_NAMES,
    VARIANTS,
    ExtRegTable,
    fit_asymptote,
    fit_sequence,
    reg_to_text,
    sweep,
    verify_bounds,
)


def _sweep_cell_by_cell(M, N, I, i_max, n_max, variants, degree_cap=DEFAULT_DEGREE_CAP):
    """Reference for sweep: ext and regularity afresh for every cell, with no
    reuse of an equal coefficient module or an equal Ext presentation."""
    R = resolve_over_A(M, cap=2 * i_max + 2, degree_cap=degree_cap)
    cells = {}
    for variant in variants:
        for n in range(n_max + 1):
            if variant == "power":
                C = power_module(I, n, N, degree_cap=degree_cap)
            else:
                C = quotient_module(N, I, n)
            for idx in range(2 * i_max + 2):
                try:
                    E = ext(M, C, idx, resolution=R, degree_cap=degree_cap)
                    value = regularity(E.presentation, degree_cap=degree_cap)
                except DegreeCapExceeded:
                    value = CAP
                cells[(variant, PARITY_NAMES[idx % 2], idx // 2, n)] = value
    ring = M.ring
    metadata = {
        "field": repr(ring.field),
        "degree_cap": degree_cap,
        "homological_cap": 2 * i_max + 2,
        "f": min(ring.f_degrees),
        "f_degrees": list(ring.f_degrees),
        "variants": list(variants),
    }
    return ExtRegTable(i_max, n_max, tuple(variants), cells, metadata)


def _counting(monkeypatch, name):
    """Wrap cmreg.sweeps.<name> so that every call's result is recorded."""
    results = []
    inner = getattr(cmreg.sweeps, name)

    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(cmreg.sweeps, name, wrapper)
    return results


@pytest.mark.parametrize(
    "setup", [hypersurface_setup, two_relation_setup, reduced_hypersurface_setup]
)
def test_sweep_matches_the_cell_by_cell_reference(setup, seed):
    # the setup's own grid, then seeded modules against I = (x1): those give
    # Ext presentations that share a cover but not their relations, so a
    # reused regularity must match the whole presentation
    A, M, N, I = setup()
    rng = random.Random(seed)
    cases = [(M, N, I, 2, 3)] + [
        (
            random_presentation(rng, A, max_deg=2),
            random_presentation(rng, A, max_deg=2),
            IdealData(A, [A.poly("x1")]),
            1,
            2,
        )
        for _ in range(4)
    ]
    for M, N, I, i_max, n_max in cases:
        T = sweep(M, N, I, i_max=i_max, n_max=n_max, variants=VARIANTS)
        ref = _sweep_cell_by_cell(M, N, I, i_max=i_max, n_max=n_max, variants=VARIANTS)
        assert T.cells == ref.cells
        assert T.metadata == ref.metadata


def test_sweep_copies_cap_cells_like_the_reference():
    # ci3.prob at degree cap 6: exactly two cells hit the cap, power/odd and
    # quotient/even at n = 5, and the rest of the grid is finite or -inf
    A, M, N, I = ci3_setup()
    args = dict(i_max=0, n_max=5, variants=VARIANTS, degree_cap=6)
    T = sweep(M, N, I, **args)
    ref = _sweep_cell_by_cell(M, N, I, **args)
    assert T.cells == ref.cells
    assert T.metadata == ref.metadata
    assert sorted(k for k, v in T.cells.items() if v == CAP) == [
        ("power", "odd", 0, 5),
        ("quotient", "even", 0, 5),
    ]


@pytest.mark.parametrize("n_max", [0, 3])
def test_sweep_runs_ext_once_per_distinct_coefficient_module(monkeypatch, n_max):
    # I is the unit ideal, so I^n N = N for every n: one column of Ext
    # modules serves the whole grid, and in that column indices 3..5 copy
    # from k - 2 (the resolution of A/(x) over K[x]/(x^2) repeats with s = 2)
    A, M, N, I = hypersurface_setup()
    exts = _counting(monkeypatch, "ext")
    regs = _counting(monkeypatch, "regularity")
    T = sweep(M, N, I, i_max=2, n_max=n_max)
    assert len(exts) == 3
    assert len(regs) == len(exts)
    assert len(T.cells) == 6 * (n_max + 1)


def test_sweep_runs_regularity_once_per_distinct_ext(monkeypatch):
    A, M, N, I = reduced_hypersurface_setup()
    exts = _counting(monkeypatch, "ext")
    regs = _counting(monkeypatch, "regularity")
    sweep(M, N, I, i_max=2, n_max=3, variants=VARIANTS)
    distinct = []
    for E in exts:
        if E.presentation not in distinct:
            distinct.append(E.presentation)
    # no two coefficient modules are equal here, so every cell below the
    # periodic window (indices 0..2 of 0..5) runs ext
    assert len(exts) == 2 * 3 * 4
    assert len(regs) == len(distinct) < len(exts)


def test_sweep_copies_the_periodic_window_on_ci3():
    # codimension 2, rank-2 modules: the resolution of M repeats from
    # index 5 on, so the odd cells at i = 2, 3 and the even one at i = 3 copy
    A, M, N, I = ci3_setup()
    T = sweep(M, N, I, i_max=3, n_max=1, variants=VARIANTS)
    ref = _sweep_cell_by_cell(M, N, I, i_max=3, n_max=1, variants=VARIANTS)
    assert T.cells == ref.cells
    assert T.metadata == ref.metadata


def test_sweep_without_a_periodic_window_matches_the_reference():
    # a seeded module over the ci3 ring whose resolution ranks grow: nothing
    # repeats, so every index runs ext as before
    A, _, N, I = ci3_setup()
    M = random_presentation(random.Random(6), A, max_rels=3, max_deg=2)
    R = resolve_over_A(M, cap=6)
    ranks = [F.rank for F in R.modules]
    assert len(ranks) == 7 and all(a < b for a, b in zip(ranks, ranks[1:]))
    assert [R.repeats(k) for k in range(6)] == [None] * 6
    T = sweep(M, N, I, i_max=2, n_max=1, variants=VARIANTS)
    ref = _sweep_cell_by_cell(M, N, I, i_max=2, n_max=1, variants=VARIANTS)
    assert T.cells == ref.cells


def test_sweep_recomputes_an_index_whose_copy_source_is_cap(monkeypatch):
    # a cap at index 1 must not be copied to index 3: index 3 runs ext and
    # matches the reference, and index 5 copies index 3
    A, M, N, I = hypersurface_setup()
    ref = _sweep_cell_by_cell(M, N, I, i_max=2, n_max=0, variants=("power",))
    indices = []
    inner = cmreg.sweeps.ext

    def capped(M, C, idx, **kwargs):
        indices.append(idx)
        if idx == 1:
            raise DegreeCapExceeded("forced", degree=0, cap=0)
        return inner(M, C, idx, **kwargs)

    monkeypatch.setattr(cmreg.sweeps, "ext", capped)
    T = sweep(M, N, I, i_max=2, n_max=0)
    assert indices == [0, 1, 2, 3]
    assert T.cell("power", "odd", 0, 0) == CAP
    assert T.cell("power", "odd", 1, 0) == ref.cell("power", "odd", 1, 0)
    assert [k for k, v in T.cells.items() if v != ref.cells[k]] == [("power", "odd", 0, 0)]


def _verify_argv(name, path, out):
    """`cmreg verify` with the benchmark's argv on problem `name` at path."""
    variants = PROBLEM_VARIANTS[name]
    return [
        "verify", str(path), "--module", "M", "--coeff", "N",
        "--ideal", "I", "--variant", "both" if len(variants) == 2 else variants[0],
        "--json", str(out),
    ]


#: (problem, ext calls, regularity calls, QuotientRing.normal_form calls)
CALL_COUNTS = [
    ("hypersurface", 3, 3, 33),
    ("two_relation", 3, 3, 29),
    ("reduced_hypersurface", 54, 11, 189),
    ("ci3", 20, 8, 220),
]


@pytest.mark.parametrize(
    "name, exts, regs, normal_forms",
    CALL_COUNTS,
    ids=[f"{name}-{exts}-{regs}" for name, exts, regs, _ in CALL_COUNTS],
)
def test_verify_call_counts_on_the_shipped_problems(
    monkeypatch, tmp_path, name, exts, regs, normal_forms
):
    # `cmreg verify` with the benchmark's argv: every index from the first
    # periodic one on copies k - 2, so ext runs only below that window;
    # canonical forms mod (z) are taken once, by minimal_generators, and
    # not again by its callers
    ext_calls = _counting(monkeypatch, "ext")
    reg_calls = _counting(monkeypatch, "regularity")
    nf_calls = []
    inner_nf = QuotientRing.normal_form

    def counting_nf(ring, p):
        nf_calls.append(p)
        return inner_nf(ring, p)

    monkeypatch.setattr(QuotientRing, "normal_form", counting_nf)
    assert main(_verify_argv(name, PROBLEMS / f"{name}.prob", tmp_path / "out.json")) == 0
    assert (len(ext_calls), len(reg_calls)) == (exts, regs)
    assert len(nf_calls) == normal_forms


@pytest.mark.parametrize("name", sorted(PROBLEM_VARIANTS))
def test_verify_answers_do_not_depend_on_the_characteristic(tmp_path, name):
    # the paper's statements hold over any field: the cells, the report and
    # the metadata other than the field agree at char 0, 2, 3, 5 and 7
    text = (PROBLEMS / f"{name}.prob").read_text()
    assert "char=32003" in text
    runs = {}
    for char in (32003, 0, 2, 3, 5, 7):
        prob = tmp_path / f"{name}_{char}.prob"
        prob.write_text(text.replace("char=32003", f"char={char}"))
        out = tmp_path / f"{name}_{char}.json"
        assert main(_verify_argv(name, prob, out)) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"].pop("field") == ("QQ" if char == 0 else f"GF({char})")
        runs[char] = {key: payload[key] for key in ("cells", "report", "metadata")}
    for char, run in runs.items():
        assert run == runs[32003], char


@pytest.mark.parametrize("name", sorted(PROBLEM_VARIANTS))
def test_the_oracle_agrees_on_every_verify_regularity_input(monkeypatch, tmp_path, name):
    # the Koszul oracle, which shares no code with the Groebner engine,
    # against the minimal resolution on each module verify measures
    modules = []
    inner = cmreg.sweeps.regularity

    def recording(P, **kwargs):
        modules.append(P)
        return inner(P, **kwargs)

    monkeypatch.setattr(cmreg.sweeps, "regularity", recording)
    assert main(_verify_argv(name, PROBLEMS / f"{name}.prob", tmp_path / "out.json")) == 0
    assert modules
    for P in modules:
        assert betti_oracle(P) == betti_table(resolve_over_Q(present_over_Q(P)))


def test_sweep_hypersurface_grid():
    A, M, N, I = hypersurface_setup()
    T = sweep(M, N, I, i_max=3, n_max=2)
    assert T.metadata["f"] == 2
    assert T.metadata["homological_cap"] == 8
    for i in range(4):
        for n in range(3):
            assert T.cell("power", "even", i, n) == -2 * i
            assert T.cell("power", "odd", i, n) == -2 * i - 1


def test_sweep_reduced_hypersurface_both_variants():
    A, M, N, I = reduced_hypersurface_setup()
    T = sweep(M, N, I, i_max=2, n_max=3, variants=("power", "quotient"))
    for i in range(3):
        for n in range(4):
            assert T.cell("power", "even", i, n) == NEG_INF
            assert T.cell("power", "odd", i, n) == n - 2 * i
            if n == 0:
                assert T.cell("quotient", "even", i, n) == NEG_INF
                assert T.cell("quotient", "odd", i, n) == NEG_INF
            else:
                assert T.cell("quotient", "even", i, n) == n - 2 * i
                assert T.cell("quotient", "odd", i, n) == -2 * i


def test_sweep_deterministic():
    A, M, N, I = reduced_hypersurface_setup()
    T1 = sweep(M, N, I, i_max=1, n_max=2, variants=("power", "quotient"))
    T2 = sweep(M, N, I, i_max=1, n_max=2, variants=("power", "quotient"))
    assert T1.rows() == T2.rows()
    assert T1.metadata == T2.metadata


@pytest.mark.parametrize(
    "setup", [hypersurface_setup, two_relation_setup, reduced_hypersurface_setup]
)
def test_grids_do_not_depend_on_characteristic(setup):
    # the acceptance setups are defined over Z: the same cells and bound
    # constants must come out over two primes and over the rationals
    results = []
    for field in (GF32003, PrimeField(101), QQ):
        A, M, N, I = setup(field)
        T = sweep(M, N, I, i_max=2, n_max=2, variants=VARIANTS)
        rho = rho_upper(I, N)[0].d1()
        report = verify_bounds(T, rho, T.metadata["f"])
        results.append((T.cells, rho, report.e_hat))
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_sweep_input_validation():
    A, M, N, I = hypersurface_setup()
    with pytest.raises(ValueError):
        sweep(M, N, I, i_max=1, n_max=1, variants=("cube",))
    Q = PolyRing(1, GF32003)
    MQ = cyclic_quotient(Q, ["x1"])
    with pytest.raises(ValueError):
        sweep(MQ, MQ, I, i_max=1, n_max=1)
    # Q as the quotient by the empty sequence is no complete intersection
    ME = cyclic_quotient(QuotientRing(Q, []), ["x1"])
    with pytest.raises(ValueError):
        sweep(ME, ME, I, i_max=1, n_max=1)


def test_reg_to_text():
    assert reg_to_text(5) == "5"
    assert reg_to_text(-3) == "-3"
    assert reg_to_text(NEG_INF) == "-inf"
    assert reg_to_text(CAP) == "cap"


def test_fit_sequence_cases():
    assert fit_sequence([5, 3, 1, -1]).linear
    fit = fit_sequence([5, 3, 1, -1])
    assert (fit.slope, fit.intercept, fit.onset) == (-2, 5, 0)
    # NEG_INF prefix: fit only the finite tail
    fit = fit_sequence([NEG_INF, 1, 2, 3])
    assert fit.linear and fit.slope == 1 and fit.onset == 1
    assert fit.intercept + fit.slope * 1 == 1
    assert fit_sequence([NEG_INF, NEG_INF]).status == "empty"
    assert fit_sequence([0, 1]).status == "inconclusive"
    assert fit_sequence([0, 1, 3, 6, 10]).status == "not-linear"
    # a trailing NEG_INF leaves nothing to fit
    assert fit_sequence([0, NEG_INF, 1, NEG_INF]).status == "inconclusive"
    # differences that stabilize too late cannot be certified
    assert fit_sequence([0, NEG_INF, 1, 2, 3, 5]).status == "not-linear"
    # cap cells are skipped, the rest must still stabilize, each cell at
    # its own index: value(k) = k - 1 from k = 1
    fit = fit_sequence([CAP, 0, 1, 2])
    assert fit.linear and fit.slope == 1
    assert (fit.intercept, fit.onset) == (-1, 1)
    # a cap inside the line starts the run after it: value(k) = k + 1 from 2
    fit = fit_sequence([1, CAP, 3, 4, 5])
    assert (fit.status, fit.slope, fit.intercept, fit.onset) == ("linear", 1, 1, 2)
    # a cap cell is unknown, not a zero module
    assert fit_sequence([CAP]).status == "inconclusive"
    assert fit_sequence([NEG_INF, CAP]).status == "inconclusive"


def test_verify_bounds_minimal_constant_and_tightness():
    A, M, N, I = hypersurface_setup()
    T = sweep(M, N, I, i_max=3, n_max=2)
    report = verify_bounds(T, rho_hat=0, f=2)
    assert report.ok
    assert report.e_hat[("power", "even")] == 0
    assert report.e_hat[("power", "odd")] == -1
    # reg = -2i = 0*n - 2i + 0 exactly, so every even cell is tight
    assert len(report.tightness[("power", "even")]) == 12
    assert report.note == GRID_LIMITATION_NOTE
    # an explicit constant that is too small must be flagged
    forced = verify_bounds(T, rho_hat=0, f=2, const=-1)
    assert not forced.ok
    assert all(key[1] == "even" for key in forced.violations)


def test_verify_bounds_reduced_hypersurface():
    A, M, N, I = reduced_hypersurface_setup()
    T = sweep(M, N, I, i_max=2, n_max=3, variants=("power", "quotient"))
    report = verify_bounds(T, rho_hat=1, f=2)
    assert report.ok
    assert report.e_hat[("power", "odd")] == 0
    assert report.e_hat[("power", "even")] == NEG_INF
    assert report.e_hat[("quotient", "even")] == 0
    assert report.e_hat[("quotient", "odd")] == -1
    # reg = n - 2i sits exactly on the bound line at every finite odd cell
    assert len(report.tightness[("power", "odd")]) == 12


def test_verify_bounds_reports_cap_cells():
    cells = {
        ("power", "even", 0, 0): 0,
        ("power", "even", 0, 1): CAP,
        ("power", "odd", 0, 0): NEG_INF,
        ("power", "odd", 0, 1): NEG_INF,
    }
    T = ExtRegTable(0, 1, ("power",), cells)
    report = verify_bounds(T, rho_hat=0, f=2)
    assert report.unverified == [("power", "even", 0, 1)]
    assert report.e_hat[("power", "even")] == 0
    assert report.e_hat[("power", "odd")] == NEG_INF
    assert report.tightness[("power", "odd")] == []


def test_fit_asymptote_slopes():
    A, M, N, I = reduced_hypersurface_setup()
    T = sweep(M, N, I, i_max=2, n_max=3, variants=("power",))
    along_i = fit_asymptote(T, "i")
    assert along_i[("power", "odd")].slope == -2
    assert along_i[("power", "even")].status == "empty"
    along_n = fit_asymptote(T, "n")
    assert along_n[("power", "odd")].slope == 1
