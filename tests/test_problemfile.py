from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from helpers import PROBLEM_VARIANTS, problem_file, random_signed_poly
from cmreg.errors import HomogeneityError, ProblemSemanticError, ProblemSyntaxError
from cmreg.fields import field_of_characteristic
from cmreg.problemfile import parse_problem, pretty_print
from cmreg.regularity import hilbert_function, regularity
from cmreg.rings import GradedPoly, PolyRing, QuotientRing, parse_poly

EXAMPLE = """\
# reduced hypersurface setup
ring d=2 char=32003
quotient: x1*x2
module M: targets [0]; relations [[x1]]
module N: targets [1]; relations [[x2]]
ideal I: x1
params: imax=3 nmax=4 candidates=I
"""


def test_parse_example():
    pf = parse_problem(EXAMPLE)
    assert pf.ring.nvars == 2 and pf.ring.field.characteristic == 32003
    assert isinstance(pf.ring, QuotientRing)
    assert [str(z) for z in pf.ring.relations] == ["x1*x2"]
    M = pf.module("M")
    assert M.cover.twists == (0,)
    N = pf.module("N")
    assert N.cover.twists == (1,)
    assert regularity(N) == 1
    I = pf.ideal("I")
    assert [str(g) for g in I.generators] == ["x1"]
    assert pf.params["imax"] == 3 and pf.params["nmax"] == 4
    assert pf.params["candidates"] == ("I",)


def test_pretty_print_round_trip():
    pf = parse_problem(EXAMPLE)
    text = pretty_print(pf)
    again = parse_problem(text)
    assert pretty_print(again) == text
    # semantic equality of the reparsed problem
    assert again.ring == pf.ring
    assert again.module("M").cover.twists == pf.module("M").cover.twists
    assert again.params == pf.params


def test_round_trip_char_zero_fractions():
    text = "ring d=1 char=0\nmodule M: targets [0]; relations [[1/2*x1^2]]\n"
    pf = parse_problem(text)
    emitted = pretty_print(pf)
    assert parse_problem(emitted).module("M").relations.source.twists == (2,)
    assert pretty_print(parse_problem(emitted)) == emitted


def test_signed_coefficients_round_trip():
    # over GF(p), representatives above p/2 print as negatives
    text = "ring d=1 char=7\nmodule M: targets [0]; relations [[6*x1]]\n"
    pf = parse_problem(text)
    out = pretty_print(pf)
    assert "[[-x1]]" in out
    assert pretty_print(parse_problem(out)) == out


def test_unit_ideal_and_empty_quotient():
    text = "ring d=1 char=32003\nideal I: unit\n"
    pf = parse_problem(text)
    assert pf.ideal("I").improper
    assert not isinstance(pf.ring, QuotientRing) or pf.ring.relations == ()


def test_repr_canonical_order():
    pf = parse_problem("ring d=2 char=32003\n")
    q = pf.ring.poly("x2^2 + x1*x2 + x1^2")
    # terms descending in the ring order
    assert repr(q) == "x1^2 + x1*x2 + x2^2"


def _poly_text(p) -> str:
    """The signed printer that problemfile kept beside GradedPoly.__repr__
    until the two merged, kept here as the reference for the merged one."""
    if p.is_zero():
        return "0"
    ring = p.ring
    pieces = []
    for exps in sorted(p.terms, key=ring.order_key, reverse=True):
        c = p.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(ring.var_name(i))
            elif e > 1:
                factors.append(f"{ring.var_name(i)}^{e}")
        p_char = ring.field.characteristic
        neg = c < 0 if p_char == 0 else c > p_char // 2
        mag = (-c if neg else c) if p_char == 0 else (p_char - c if neg else c)
        coeff = str(mag)
        if factors and mag == ring.field.one:
            body = "*".join(factors)
        elif factors:
            body = "*".join([coeff] + factors)
        else:
            body = coeff
        pieces.append(("- " if neg else "+ ") + body if pieces else
                      ("-" + body if neg else body))
    return " ".join(pieces)


@pytest.mark.parametrize("name", sorted(PROBLEM_VARIANTS))
def test_pretty_print_of_shipped_files_matches_the_old_printer(name, monkeypatch):
    pf = problem_file(name)
    text = pretty_print(pf)
    monkeypatch.setattr(GradedPoly, "__repr__", _poly_text)
    assert pretty_print(pf) == text
    assert pretty_print(parse_problem(text)) == text


@pytest.mark.parametrize("char", [0, 7, 32003])
def test_repr_matches_the_old_printer_on_random_polys(char, seed):
    rng = random.Random(seed)
    for d in (1, 2, 3):
        R = PolyRing(d, field_of_characteristic(char))
        for degree in (0, 1, 2, 3):
            p = random_signed_poly(rng, R, degree)
            assert repr(p) == _poly_text(p)


def test_syntax_errors_carry_positions():
    bad = "ring d=2 char=32003\nmodule M targets [0]\n"
    with pytest.raises(ProblemSyntaxError) as err:
        parse_problem(bad)
    assert "2" in str(err.value)

    with pytest.raises(ProblemSyntaxError):
        parse_problem("ring d=2\n")  # missing char

    with pytest.raises(ProblemSyntaxError):
        parse_problem("ring d=2 char=32003\nfrobnicate: 1\n")


@pytest.mark.parametrize(
    "line, token",
    [
        ("ideal I: x1, x3", "x3"),
        ("module M: targets [0]; relations [[x1], [2*x1 + y]]", "y"),
        ("quotient: x1^2; x2^", ""),
        ("module M: targets [0, a]; relations []", "a]"),
        ("module M: targets [0]; relations [[x1]] x1", "x1"),
        ("ideal I: x1 x2", "x2"),
        ("ideal I: (x1 + x2", ""),
        ("ideal I: x1/2", "/"),
        ("ideal I: 1/64006*x1", "64006"),
    ],
)
def test_syntax_errors_point_at_the_offending_token(line, token):
    # the column is the token's, 1-based, or one past the line at its end
    with pytest.raises(ProblemSyntaxError) as err:
        parse_problem("ring d=2 char=32003\n" + line)
    column = line.rindex(token) + 1 if token else len(line) + 1
    assert (err.value.line, err.value.column) == (2, column)
    assert str(err.value).startswith(f"2:{column}: ")


def test_twenty_variable_quotient_parses():
    # ten squares in twenty variables; the regular-sequence check must not
    # try the C(20, k) variable subsets one by one
    squares = "; ".join(f"x{k}^2" for k in range(1, 11))
    text = "ring d=20 char=32003\nquotient: " + squares + "\n"
    assert parse_problem(text).ring.f_degrees == (2,) * 10
    with pytest.raises(ProblemSemanticError):
        parse_problem(text.replace(squares, squares + "; x1*x2"))


def test_semantic_errors():
    # quotient by a non-regular sequence
    with pytest.raises(ProblemSemanticError):
        parse_problem("ring d=2 char=32003\nquotient: x1; x1*x2\n")
    # inhomogeneous module entry
    with pytest.raises(ProblemSemanticError):
        parse_problem(
            "ring d=2 char=32003\nmodule M: targets [0]; relations [[x1 + 1]]\n"
        )
    # relation vector of the wrong length
    with pytest.raises(ProblemSemanticError):
        parse_problem(
            "ring d=2 char=32003\nmodule M: targets [0]; relations [[x1, x2]]\n"
        )
    # candidates naming an unknown ideal
    with pytest.raises(ProblemSemanticError):
        parse_problem("ring d=2 char=32003\nparams: candidates=nope\n")
    # quotient after a module
    with pytest.raises(ProblemSyntaxError):
        parse_problem(
            "ring d=2 char=32003\nmodule M: targets [0]\nquotient: x1\n"
        )


def test_unknown_candidate_reports_params_line():
    text = "ring d=2 char=32003\nideal I: x1\nparams: imax=1 candidates=I,J\n"
    with pytest.raises(ProblemSemanticError) as err:
        parse_problem(text)
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: ")
    # a candidate may name an ideal declared after the params line
    pf = parse_problem(text + "ideal J: x2\n")
    assert pf.params["candidates"] == ("I", "J")


def test_repeated_params_key_is_rejected():
    # a repeated key is an error, as repeated lines and names are, not a
    # silent last-wins
    for line in ("params: imax=3 imax=5", "params: candidates=I nmax=1 candidates=I"):
        text = "ring d=2 char=32003\nideal I: x1\n" + line + "\n"
        with pytest.raises(ProblemSemanticError) as err:
            parse_problem(text)
        assert err.value.line == 3
        key = line.split()[-1].split("=")[0]
        assert str(err.value) == f"line 3: duplicate parameter {key!r}"


def test_zero_relation_vector_rejected():
    with pytest.raises(ProblemSemanticError):
        parse_problem(
            "ring d=2 char=32003\nmodule M: targets [0]; relations [[0]]\n"
        )


def test_module_without_relations_is_free():
    pf = parse_problem(
        "ring d=2 char=32003\nmodule F: targets [0, 2]; relations []\n"
    )
    F = pf.module("F")
    assert F.cover.twists == (0, 2)
    assert F.relations.source.rank == 0
    with pytest.raises(ProblemSemanticError):
        pf.module("G")
    with pytest.raises(ProblemSemanticError):
        pf.ideal("I")


SHIPPED = [
    p.read_text()
    for p in sorted((Path(__file__).parents[1] / "perfbench" / "problems").glob("*.prob"))
]
TOKENS = (
    "ring", "quotient", "module", "ideal", "params", "targets", "relations",
    "unit", "imax", "nmax", "degree_cap", "candidates", "d=", "char=", "x1",
    "x4", "0", "7", "-1", "1/2", "^", "*", "+", "-", ",", ";", ":", "=", "[",
    "]", " ", "\n", "#",
)
MUTATION = st.tuples(
    st.sampled_from(("insert", "delete", "replace")),
    st.integers(0, 10**4),
    st.one_of(st.sampled_from(TOKENS), st.characters(min_codepoint=32, max_codepoint=126)),
)


def _mutate(text, mutations):
    for op, pos, token in mutations:
        pos %= len(text) + 1
        tail = text[pos:] if op == "insert" else text[pos + len(token) :]
        text = text[:pos] + ("" if op == "delete" else token) + tail
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED), st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_problem_files_round_trip_or_fail_with_position(text, mutations):
    text = _mutate(text, mutations)
    try:
        pf = parse_problem(text)
    except ProblemSyntaxError as exc:
        line = (text.splitlines() or [""])[exc.line - 1]
        assert 1 <= exc.column <= len(line) + 1, exc
        return
    except ProblemSemanticError as exc:
        assert exc.line is not None, exc
        return
    printed = pretty_print(pf)
    assert pretty_print(parse_problem(printed)) == printed


def _outcome(parse, text):
    """The pretty_print of text's parse, or None where parse rejects it."""
    try:
        return pretty_print(parse(text))
    except (ProblemSyntaxError, ProblemSemanticError):
        return None


#: where the token stream reads a text otherwise than the reference, as
#: CHANGES.md declares: a twist written with + or _ (int() took both), a
#: blank after the minus of an integer, an empty name in a candidates list
DECLARED = re.compile(
    r"targets\s*\[[^\]]*[+_]|[=\[,]\s*-\s+\d|candidates=(\S*,)?(?=[,\s#]|$)",
    re.MULTILINE,
)


@pytest.mark.parametrize("text", SHIPPED + [EXAMPLE])
def test_shipped_files_read_as_the_reference_reads_them(text):
    assert _outcome(parse_problem, text) == _outcome(reference_parser.parse_problem, text)
    assert _outcome(parse_problem, text) is not None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED), st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_files_read_as_the_reference_reads_them(text, mutations):
    text = _mutate(text, mutations)
    new = _outcome(parse_problem, text)
    old = _outcome(reference_parser.parse_problem, text)
    assert new == old or (None in (new, old) and DECLARED.search(text)), (text, new, old)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from((0, 7, 32003)),
    st.integers(0, 2**32),
    st.lists(MUTATION, max_size=3),
)
def test_mutated_polynomials_read_as_the_reference_reads_them(char, seed, mutations):
    R = PolyRing(2, field_of_characteristic(char))
    text = _mutate(repr(random_signed_poly(random.Random(seed), R, 2)), mutations)

    def outcome(parse, errors=(ValueError, HomogeneityError)):
        try:
            return parse(R, text)
        except errors:
            return None

    # the reference crashed on a denominator divisible by p
    old = outcome(reference_parser.parse_poly, (ValueError, HomogeneityError, ZeroDivisionError))
    assert outcome(parse_poly) == old, text


def _integer_module_text(rng, ring):
    """A seeded module line over ring (char 0), as problem-file text with
    integer coefficients in [-6, 6].  Entries use only standard monomials,
    and the reductions of ring's quotients have unit coefficients, so each
    entry is in normal form in every characteristic.  Each relation column
    keeps one coefficient 1, so no column vanishes mod p, which a problem
    file refuses."""

    def monomial(exps):
        return "*".join(f"x{k + 1}^{e}" for k, e in enumerate(exps) if e) or "1"

    twists = sorted(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
    cols = []
    for _ in range(rng.randint(1, 3)):
        s = twists[0] + rng.randint(1, 2)
        terms = [
            (k, exps)
            for k, t in enumerate(twists) if s >= t
            for exps in ring.std_monomials_of_degree(s - t)
        ]
        unit = rng.choice(terms)
        col = ["" for _ in twists]
        for k, exps in terms:
            c = 1 if (k, exps) == unit else rng.randint(-6, 6)
            if c:
                col[k] += f" {'-' if c < 0 else '+'} {abs(c)}*{monomial(exps)}"
        cols.append("[" + ", ".join(e.strip() or "0" for e in col) + "]")
    return f"module M: targets {twists}; relations [{', '.join(cols)}]\n"


def _hilbert_by_characteristic(body, window):
    """{p: [dim (M_p)_s for s in window]} for the module M of body, read
    under the ring line of each characteristic p."""
    dims = {}
    for p in (0, 2, 3, 5, 7, 32003):
        M = parse_problem(f"ring d=3 char={p}\n" + body).module("M")
        dims[p] = hilbert_function(M, window[0], window[-1])
    return dims


@pytest.mark.parametrize("quotient", ["", "quotient: x1^2; x2^2 - x1*x3\n"])
def test_hilbert_functions_only_grow_mod_p(quotient, seed):
    # M_Z presented by integer matrices: each graded piece of M_p is the
    # cokernel of the same integer matrix as M_0's, and a rank mod p is at
    # most the rank over QQ, so dim (M_p)_s >= dim (M_0)_s exactly.  Betti
    # numbers are only semicontinuous, so they are not compared.
    rng = random.Random(seed)
    ring0 = parse_problem("ring d=3 char=0\n" + quotient).ring
    for _ in range(6):
        body = quotient + _integer_module_text(rng, ring0)
        # generators sit in degrees 0 and 1, relations in 1 to 3
        dims = _hilbert_by_characteristic(body, range(6))
        for p, dims_p in dims.items():
            assert all(a >= b for a, b in zip(dims_p, dims[0])), (p, body, dims)
    # the inequality can be strict: x1 + x2 and x1 - x2 span one line mod 2
    dims = _hilbert_by_characteristic(
        quotient + "module M: targets [0]; relations [[x1 + x2], [x1 - x2]]\n", range(3)
    )
    assert dims[2][1] == dims[0][1] + 1
    assert all(dims[p] == dims[0] for p in (3, 5, 7, 32003))
