"""Line-oriented problem files describing a graded setup.

    # comment
    ring d=2 char=32003
    quotient: x1^2; x2^3
    module M: targets [0]; relations [[x2]]
    ideal I: x1, x2
    ideal J: unit
    params: imax=3 nmax=4 degree_cap=40 candidates=I,J

Each line is read as one rings.TokenStream of integers, names and single
characters, with whitespace free between tokens.  Polynomials in x1..xd
(+, -, *, ^, integer or p/q coefficients, parentheses) are read from the
same stream in place, so a syntax error gives the line and column of the
token it stopped at.  The ring line comes first, with 1 <= d <= MAX_VARS,
the optional quotient line before any module or ideal; without one (or
with an empty one) the ring is Q itself, which sweep and verify reject.
Entries are stored in canonical form in A, so pretty_print o parse_problem
is the identity on files it emits.  The params keys are imax, nmax (the
sweep grid) and degree_cap, integers >= 0, and candidates, names of extra
ideals for rho_upper, each given at most once.  A sweep's homological cap
is 2*imax + 2, not a parameter.
"""

from __future__ import annotations

from functools import partial

from .errors import HomogeneityError, ProblemSemanticError, ProblemSyntaxError
from .fields import field_of_characteristic
from .freemod import (
    GradedFreeModule,
    ModulePresentation,
    map_from_columns,
    vec_degree,
)
from .rees import IdealData, unit_ideal
from .rings import PolyRing, QuotientRing, TokenStream

#: run-parameter keys accepted on the params line, in canonical print order
PARAM_KEYS = ("imax", "nmax", "degree_cap", "candidates")

#: the largest d a ring line may declare: each monomial is a d-tuple
MAX_VARS = 1000


class ProblemFile:
    """Parsed problem: the ring A, named modules and ideals, run params.
    The file's d, char and quotient are ring.nvars,
    ring.field.characteristic and ring.relations."""

    __slots__ = ("ring", "modules", "ideals", "params")

    def __init__(self, ring, modules, ideals, params):
        self.ring = ring
        self.modules = modules
        self.ideals = ideals
        self.params = params

    def module(self, name) -> ModulePresentation:
        if name not in self.modules:
            raise ProblemSemanticError(f"unknown module {name!r}")
        return self.modules[name]

    def ideal(self, name) -> IdealData:
        if name not in self.ideals:
            raise ProblemSemanticError(f"unknown ideal {name!r}")
        return self.ideals[name]


def _separated(ts, read, sep):
    """read() once, then once more after each sep."""
    items = [read()]
    while ts.accept(sep):
        items.append(read())
    return items


def _bracketed(ts, read):
    """[item, ...] with each item read by read(); [] is empty."""
    ts.expect("[")
    if ts.accept("]"):
        return []
    items = _separated(ts, read, ",")
    ts.expect("]")
    return items


def _entry(ts, ring):
    """One polynomial of the line, in canonical form in ring."""
    start = ts.col()
    try:
        return ring.normal_form(ts.poly(ring.base))
    except HomogeneityError as exc:
        text = ts.text[start - 1 : ts.col() - 1].rstrip()
        raise ProblemSemanticError(f"inhomogeneous polynomial {text!r}: {exc}", ts.line)


def parse_problem(text: str) -> ProblemFile:
    base = ring = None
    modules = {}
    ideals = {}
    params = {}
    names = set()
    once = set()
    params_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        ts = TokenStream(line, lineno)
        col = ts.col()
        word = ts.name()
        if ring is None and word != "ring":
            raise ProblemSyntaxError("the ring line must come first", lineno, col)
        if word in ("ring", "quotient", "params"):
            if word in once:
                raise ProblemSemanticError(f"duplicate {word} line", lineno)
            once.add(word)
        if word in ("module", "ideal"):
            name = ts.name()
            if name in names:
                raise ProblemSemanticError(f"duplicate name {name!r}", lineno)
            names.add(name)
            ts.expect(":")
            entry = partial(_entry, ts, ring)

        if word == "ring":
            ts.expect("d", "=")
            d = ts.integer()
            ts.expect("char", "=")
            char = ts.integer()
            if not 1 <= d <= MAX_VARS:
                raise ProblemSemanticError(f"need 1 <= d <= {MAX_VARS}", lineno)
            try:
                field = field_of_characteristic(char)
            except ValueError as exc:
                raise ProblemSemanticError(str(exc), lineno)
            base = ring = PolyRing(d, field)
        elif word == "quotient":
            if modules or ideals:
                raise ProblemSemanticError(
                    "quotient must precede modules and ideals", lineno
                )
            ts.expect(":")
            if ts.peek():
                quotient = _separated(ts, partial(_entry, ts, base), ";")
                try:
                    ring = QuotientRing(base, quotient)
                except ValueError as exc:
                    raise ProblemSemanticError(str(exc), lineno)
        elif word == "module":
            ts.expect("targets")
            targets = tuple(_bracketed(ts, ts.integer))
            ts.expect(";", "relations")
            cols = _bracketed(ts, partial(_bracketed, ts, entry))
            cover = GradedFreeModule(ring, targets)
            src_twists = []
            for vec in cols:
                if len(vec) != len(targets):
                    raise ProblemSemanticError(
                        f"relation has {len(vec)} entries, expected {len(targets)}",
                        lineno,
                    )
                try:
                    deg = vec_degree(cover, vec)
                except HomogeneityError as exc:
                    raise ProblemSemanticError(str(exc), lineno)
                if deg is None:
                    raise ProblemSemanticError("zero relation vector", lineno)
                src_twists.append(deg)
            modules[name] = ModulePresentation(
                map_from_columns(tuple(src_twists), cover, cols)
            )
        elif word == "ideal":
            if ts.accept("unit"):
                ideals[name] = unit_ideal(ring)
            elif not ts.peek():
                raise ts.error("ideal needs generators or 'unit'")
            else:
                ideals[name] = IdealData(ring, _separated(ts, entry, ","))
        elif word == "params":
            params_line = lineno
            ts.expect(":")
            while ts.peek():
                key = ts.name()
                if key not in PARAM_KEYS:
                    raise ProblemSemanticError(
                        f"unknown parameter {key!r} (known: {', '.join(PARAM_KEYS)})",
                        lineno,
                    )
                if key in params:
                    raise ProblemSemanticError(f"duplicate parameter {key!r}", lineno)
                ts.expect("=")
                if key == "candidates":
                    params[key] = tuple(_separated(ts, ts.name, ","))
                else:
                    params[key] = ts.integer()
                    if params[key] < 0:
                        raise ProblemSemanticError(
                            f"parameter {key} must be >= 0", lineno
                        )
        else:
            raise ProblemSyntaxError(f"unknown directive {word!r}", lineno, col)
        ts.end()

    if ring is None:
        raise ProblemSyntaxError("missing ring line", 1, 1)
    for cand in params.get("candidates", ()):
        if cand not in ideals:
            raise ProblemSemanticError(f"unknown candidate ideal {cand!r}", params_line)
    return ProblemFile(ring, modules, ideals, params)


# -- canonical text form -------------------------------------------------------


def pretty_print(pf: ProblemFile) -> str:
    ring = pf.ring
    out = [f"ring d={ring.nvars} char={ring.field.characteristic}"]
    if ring.relations:
        out.append("quotient: " + "; ".join(repr(z) for z in ring.relations))
    for name, M in pf.modules.items():
        targets = "[" + ",".join(str(a) for a in M.generator_degrees) + "]"
        rels = ",".join(
            "[" + ",".join(repr(p) for p in M.relations.column(m)) + "]"
            for m in range(M.relations.source.rank)
        )
        out.append(f"module {name}: targets {targets}; relations [{rels}]")
    for name, I in pf.ideals.items():
        if I.improper:
            out.append(f"ideal {name}: unit")
        else:
            gens = ", ".join(repr(g) for g in I.generators)
            out.append(f"ideal {name}: {gens}")
    if pf.params:
        bits = []
        for key in PARAM_KEYS:
            if key not in pf.params:
                continue
            val = pf.params[key]
            bits.append(
                f"{key}={','.join(val)}" if key == "candidates" else f"{key}={val}"
            )
        out.append("params: " + " ".join(bits))
    return "\n".join(out) + "\n"
