"""The problem-file and polynomial parsers as they were before both read
one token stream: three scanners, with each polynomial cut out as a
substring and parsed again.  Kept as the reference that
test_problemfile.py compares the token-stream parser against."""

from __future__ import annotations

import re
from fractions import Fraction

from cmreg.errors import HomogeneityError, ProblemSemanticError, ProblemSyntaxError
from cmreg.fields import field_of_characteristic
from cmreg.freemod import GradedFreeModule, ModulePresentation, map_from_columns, vec_degree
from cmreg.problemfile import PARAM_KEYS, ProblemFile
from cmreg.rees import IdealData, unit_ideal
from cmreg.rings import PolyRing

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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

    def fail(self, message):
        raise ProblemSyntaxError(message, self.lineno, self.col())

    def literal(self, lit):
        self.skip_ws()
        if not self.text.startswith(lit, self.pos):
            self.fail(f"expected {lit!r}")
        self.pos += len(lit)

    def name(self):
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected a name")
        self.pos = m.end()
        return m.group(0)

    def integer(self):
        self.skip_ws()
        m = re.compile(r"-?\d+").match(self.text, self.pos)
        if not m:
            self.fail("expected an integer")
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
        return ring.normal_form(parse_poly(ring.base, text))
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
            raise ProblemSyntaxError("the ring line must come first", lineno, 1)

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
                    ring = base.quotient(quotient)
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
                    raise ProblemSyntaxError(f"bad twist {item!r}", lineno, cur.col())
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
                    "ideal needs generators or 'unit'", lineno, cur.col()
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

        raise ProblemSyntaxError(f"unknown directive {word!r}", lineno, 1)

    if ring is None:
        raise ProblemSyntaxError("missing ring line", 1, 1)
    for cand in params.get("candidates", ()):
        if cand not in ideals:
            raise ProblemSemanticError(f"unknown candidate ideal {cand!r}", params_line)
    return ProblemFile(ring, modules, ideals, params)



def _tokenize_poly(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^/()":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ValueError(f"offset {i}: variable needs an index, e.g. x1")
            toks.append(("var", text[i:j], i))
            i = j
            continue
        raise ValueError(f"offset {i}: unexpected character {ch!r}")
    toks.append(("end", "", n))
    return toks


def parse_poly(ring: PolyRing, text: str) -> GradedPoly:
    """Parse e.g. '2*x1^2*x2 - x2^3 + 1/2*x1*x2^2' into a GradedPoly.

    The result must be homogeneous (or zero); mixed degrees raise
    HomogeneityError.
    """
    toks = _tokenize_poly(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(kind=None):
        nonlocal pos
        t = toks[pos]
        if kind is not None and t[0] != kind:
            raise ValueError(f"offset {t[2]}: expected {kind}, got {t[1]!r}")
        pos += 1
        return t

    def parse_factor():
        kind, val, off = peek()
        if kind == "int":
            take()
            num = int(val)
            if peek()[0] == "/":
                take()
                den = int(take("int")[1])
                if den == 0:
                    raise ValueError(f"offset {off}: zero denominator")
                if ring.field.characteristic == 0:
                    return ring.constant(Fraction(num, den))
                return ring.constant(ring.field.div(ring.field(num), ring.field(den)))
            return ring.constant(num)
        if kind == "var":
            take()
            idx = int(val[1:])
            if not 1 <= idx <= ring.nvars:
                raise ValueError(
                    f"offset {off}: variable {val} out of range 1..{ring.nvars}"
                )
            p = ring.variable(idx - 1)
            if peek()[0] == "^":
                take()
                exp = int(take("int")[1])
                exps = [0] * ring.nvars
                exps[idx - 1] = exp
                p = ring.monomial(exps)
            return p
        if kind == "(":
            take()
            p = parse_expr()
            if peek()[0] != ")":
                raise ValueError(f"offset {peek()[2]}: expected ')'")
            take()
            return p
        raise ValueError(f"offset {off}: expected a coefficient or variable")

    def parse_term():
        p = parse_factor()
        while peek()[0] == "*":
            take()
            p = p * parse_factor()
        return p

    def parse_expr():
        sign = 1
        if peek()[0] in "+-":
            sign = -1 if take()[0] == "-" else 1
        acc = parse_term()
        if sign < 0:
            acc = -acc
        while peek()[0] in "+-":
            op = take()[0]
            t = parse_term()
            acc = acc - t if op == "-" else acc + t
        return acc

    result = parse_expr()
    if peek()[0] != "end":
        raise ValueError(f"offset {peek()[2]}: trailing input {peek()[1]!r}")
    return result
