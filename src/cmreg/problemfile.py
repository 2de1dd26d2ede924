"""Line-oriented problem files describing a graded setup.

    # comment
    ring d=2 char=32003
    quotient: x1^2; x2^3
    module M: targets [0]; relations [[x2]]
    ideal I: x1, x2
    ideal J: unit
    params: imax=3 nmax=4 degree_cap=40 candidates=I,J

Variables are x1..xd; polynomials use +, -, *, ^, integer or p/q
coefficients and parentheses.  The ring line comes first, the quotient
line before any module or ideal.  The quotient line is optional; without
one (or with an empty one) the ring is Q itself, the quotient by the
empty sequence, which sweep and verify reject.  Module entries and ideal
generators are stored in canonical form in A, so pretty_print o
parse_problem is the identity on files it emits.

The params keys are imax and nmax (the sweep grid) and degree_cap, all
integers >= 0, and candidates (extra ideals for rho_upper).  A sweep's
homological cap is always 2*imax + 2 and is not a parameter.
"""

from __future__ import annotations

import re

from .errors import HomogeneityError, ProblemSemanticError, ProblemSyntaxError
from .fields import field_of_characteristic
from .freemod import (
    GradedFreeModule,
    ModulePresentation,
    map_from_columns,
    vec_degree,
)
from .rees import IdealData, unit_ideal
from .rings import PolyRing, QuotientRing

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: run-parameter keys accepted on the params line, in canonical print order
PARAM_KEYS = ("imax", "nmax", "degree_cap", "candidates")


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


class _Cursor:
    """Single-line scanner that reports 1-based columns on failure."""

    def __init__(self, text, lineno):
        self.text = text
        self.pos = 0
        self.lineno = lineno

    def col(self):
        return self.pos + 1

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail(self, message, expected=()):
        raise ProblemSyntaxError(message, self.lineno, self.col(), expected)

    def literal(self, lit):
        self.skip_ws()
        if not self.text.startswith(lit, self.pos):
            self.fail(f"expected {lit!r}", expected=(lit,))
        self.pos += len(lit)

    def name(self):
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected a name", expected=("name",))
        self.pos = m.end()
        return m.group(0)

    def integer(self):
        self.skip_ws()
        m = re.compile(r"-?\d+").match(self.text, self.pos)
        if not m:
            self.fail("expected an integer", expected=("integer",))
        self.pos = m.end()
        return int(m.group(0))

    def until(self, stops):
        """Consume to the next top-level occurrence of a stop character
        (depth-aware for brackets and parens); returns the slice."""
        self.skip_ws()
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "[(":
                depth += 1
            elif ch in "])":
                if depth == 0 and ch in stops:
                    break
                depth -= 1
                if depth < 0:
                    self.fail("unbalanced bracket")
            elif depth == 0 and ch in stops:
                break
            self.pos += 1
        return self.text[start:self.pos].strip()


def _split_top(text, sep, lineno, col0):
    """Split text on top-level sep, tracking bracket depth."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
            if depth < 0:
                raise ProblemSyntaxError("unbalanced bracket", lineno, col0)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _bracket_list(cur: _Cursor):
    """Consume [item, item, ...] and return the raw item strings."""
    cur.literal("[")
    inner = cur.until("]")
    cur.literal("]")
    if not inner:
        return []
    return _split_top(inner, ",", cur.lineno, cur.col())


def _parse_entry(text, ring, lineno):
    """One polynomial in canonical A-form, with errors tied to the line."""
    if not text:
        raise ProblemSyntaxError("empty polynomial", lineno, 1)
    try:
        return ring.poly(text)
    except HomogeneityError as exc:
        raise ProblemSemanticError(f"inhomogeneous polynomial {text!r}: {exc}", lineno)
    except ValueError as exc:
        raise ProblemSyntaxError(f"bad polynomial {text!r}: {exc}", lineno, 1)
    except RecursionError:
        raise ProblemSyntaxError("polynomial nested too deeply", lineno, 1) from None


def parse_problem(text: str) -> ProblemFile:
    base = ring = None
    quotient = []
    modules = {}
    ideals = {}
    params = {}
    names = set()
    seen_quotient = False
    params_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = _Cursor(line, lineno)
        word = cur.name()

        if word == "ring":
            if ring is not None:
                raise ProblemSemanticError("duplicate ring line", lineno)
            cur.literal("d")
            cur.literal("=")
            d = cur.integer()
            cur.literal("char")
            cur.literal("=")
            char = cur.integer()
            if not cur.at_end():
                cur.fail("trailing text after ring line")
            if d < 1:
                raise ProblemSemanticError("need d >= 1", lineno)
            try:
                field = field_of_characteristic(char)
            except ValueError as exc:
                raise ProblemSemanticError(str(exc), lineno)
            base = PolyRing(d, field)
            ring = base
            continue

        if ring is None:
            raise ProblemSyntaxError(
                "the ring line must come first", lineno, 1, expected=("ring",)
            )

        if word == "quotient":
            if seen_quotient:
                raise ProblemSemanticError("duplicate quotient line", lineno)
            if modules or ideals:
                raise ProblemSemanticError(
                    "quotient must precede modules and ideals", lineno
                )
            seen_quotient = True
            cur.literal(":")
            rest = line[cur.pos:].strip()
            if rest:
                for piece in _split_top(rest, ";", lineno, cur.col()):
                    quotient.append(_parse_entry(piece, base, lineno))
            if quotient:
                try:
                    ring = QuotientRing(base, quotient)
                except ValueError as exc:
                    raise ProblemSemanticError(str(exc), lineno)
            continue

        if word == "module":
            name = cur.name()
            if name in names:
                raise ProblemSemanticError(f"duplicate name {name!r}", lineno)
            names.add(name)
            cur.literal(":")
            cur.literal("targets")
            targets = []
            for item in _bracket_list(cur):
                try:
                    targets.append(int(item))
                except ValueError:
                    raise ProblemSyntaxError(
                        f"bad twist {item!r}", lineno, cur.col(), expected=("integer",)
                    )
            cur.literal(";")
            cur.literal("relations")
            items = _bracket_list(cur)
            if not cur.at_end():
                cur.fail("trailing text after relations")
            cover = GradedFreeModule(ring, tuple(targets))
            cols = []
            src_twists = []
            for item in items:
                if not (item.startswith("[") and item.endswith("]")):
                    raise ProblemSyntaxError(
                        "each relation is a [..] vector", lineno, cur.col()
                    )
                vec_text = _split_top(item[1:-1], ",", lineno, cur.col())
                if len(vec_text) != len(targets):
                    raise ProblemSemanticError(
                        f"relation has {len(vec_text)} entries, expected "
                        f"{len(targets)}", lineno
                    )
                col = tuple(_parse_entry(t, ring, lineno) for t in vec_text)
                try:
                    deg = vec_degree(cover, col)
                except HomogeneityError as exc:
                    raise ProblemSemanticError(str(exc), lineno)
                if deg is None:
                    raise ProblemSemanticError("zero relation vector", lineno)
                cols.append(col)
                src_twists.append(deg)
            modules[name] = ModulePresentation(
                map_from_columns(tuple(src_twists), cover, cols)
            )
            continue

        if word == "ideal":
            name = cur.name()
            if name in names:
                raise ProblemSemanticError(f"duplicate name {name!r}", lineno)
            names.add(name)
            cur.literal(":")
            rest = line[cur.pos:].strip()
            if rest == "unit":
                ideals[name] = unit_ideal(ring)
                continue
            if not rest:
                raise ProblemSyntaxError(
                    "ideal needs generators or 'unit'", lineno, cur.col(),
                    expected=("polynomial", "unit"),
                )
            gens = [
                _parse_entry(t, ring, lineno)
                for t in _split_top(rest, ",", lineno, cur.col())
            ]
            ideals[name] = IdealData(ring, gens)
            continue

        if word == "params":
            if params_line is not None:
                raise ProblemSemanticError("duplicate params line", lineno)
            params_line = lineno
            cur.literal(":")
            while not cur.at_end():
                key = cur.name()
                if key not in PARAM_KEYS:
                    raise ProblemSemanticError(
                        f"unknown parameter {key!r} (known: {', '.join(PARAM_KEYS)})",
                        lineno,
                    )
                cur.literal("=")
                if key == "candidates":
                    rest = cur.until(" ")
                    cands = [c for c in rest.split(",") if c]
                    params[key] = tuple(cands)
                else:
                    params[key] = cur.integer()
                    if params[key] < 0:
                        raise ProblemSemanticError(
                            f"parameter {key} must be >= 0", lineno
                        )
            continue

        raise ProblemSyntaxError(
            f"unknown directive {word!r}", lineno, 1,
            expected=("ring", "quotient", "module", "ideal", "params"),
        )

    if ring is None:
        raise ProblemSyntaxError("missing ring line", 1, 1, expected=("ring",))
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
