"""Command line surface.

Subcommands: resolve, reg, ext, tor, rho, sweep, verify, trigraded-bound,
each accepting only the options it reads.  --imax, --nmax and --degree-cap
take the flag if given, else the problem file's params value or the
trigraded data file's key of that name, else the default; rho --nmax and
resolve --cap are flags only.  A run builds only its subcommand's parser,
and every parser for top-level help and errors.
Exit codes: 0 success, 1 usage, parse or semantic error or an output path
that cannot be written, 2 degree-cap breach, 3 bound violation, 4 internal
consistency failure.

sweep writes --csv and --json (CSV on stdout if neither), verify --json
(else stdout), every other subcommand --out (else stdout).  Output files
are written atomically (unique temp file, fsync, rename).  CSV rows are
`variant,parity,i,n,reg` with the literal `-inf` for vanishing modules and
`cap` for cells abandoned at the degree cap; the JSON artifact mirrors the
CSV cells plus a metadata block.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile

from . import __version__
from .errors import (
    BoundViolation,
    CmregError,
    DegreeCapExceeded,
    InternalConsistencyError,
    ProblemSemanticError,
    ProblemSyntaxError,
)
from .ext_tor import ext, tor
from .freemod import NEG_INF
from .groebner import DEFAULT_DEGREE_CAP
from .problemfile import parse_problem
from .rees import rho_upper
from .regularity import present_over_Q, regularity
from .resolution import betti_table, resolve_over_A, resolve_over_Q
from .sweeps import reg_to_text, sweep, verify_bounds
from .trigraded import (
    TrigradedFreeData,
    TrigradedRingSpec,
    _integer,
    bound_constants,
    grid_bound_check,
)


# mkstemp creates 0600 files; outputs get the mode open() would give them
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path: str, text: str):
    """Replace path with text in one step.  Each call writes its own temp
    file beside path, so concurrent writers never share one, and readers
    see either the old file or one whole payload.  A path that exists and
    is not a regular file (a FIFO, a device) is written in place, since
    renaming over it would replace the node itself."""
    try:
        irregular = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        irregular = False
    if irregular:
        with open(path, "w") as fh:
            fh.write(text)
        return
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, out=None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        atomic_write(out, text)
    except OSError as exc:
        raise CmregError(f"cannot write {out}: {exc.strerror or exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (the parse-error code) instead of
    argparse's default 2, which this tool reserves for cap breaches."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CmregError(message)


def nonnegative(text):
    """The int value of text, ASCII digits as a problem file's integers are
    (int() also takes '1_0', ' 2 ', '+1', '٣'): every index, cap and size."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a string of ASCII digits")
    return int(text)


def signed(text):
    """An optional '-', then what nonnegative() reads: --rho and --const."""
    return -nonnegative(text[1:]) if text.startswith("-") else nonnegative(text)


signed.__name__ = "int"  # argparse's messages name the type: "invalid int value"


def _read(path: str) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemSemanticError(f"cannot read {path}: {exc}")


def _load(path: str):
    return parse_problem(_read(path))


def _setting(args, source, key, default):
    """The run setting key: the flag of that name if given, else source[key]
    (a problem file's params or a trigraded data file's top level), else
    default.  A file value must be an integer >= 0; an integral float
    passes, as it does for the integers of a TrigradedRingSpec."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    try:
        value = _integer(source.get(key, default))
    except ValueError as exc:
        raise ProblemSemanticError(f"bad {key}: {exc}")
    if value < 0:
        raise ProblemSemanticError(f"bad {key}: {value} is negative")
    return value


# -- subcommands ----------------------------------------------------------------


def cmd_resolve(args):
    pf = _load(args.problem)
    M = pf.module(args.module)
    degree_cap = _setting(args, pf.params, "degree_cap", DEFAULT_DEGREE_CAP)
    if args.over == "Q":
        R = resolve_over_Q(present_over_Q(M), degree_cap=degree_cap)
    else:
        R = resolve_over_A(M, cap=args.cap, degree_cap=degree_cap)
    lines = [f"minimal={R.minimal} complete={R.complete} length={R.length}"]
    for l, F in enumerate(R.modules):
        lines.append(f"F_{l}: [{','.join(str(a) for a in F.twists)}]")
    lines.append(str(betti_table(R)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_reg(args):
    pf = _load(args.problem)
    M = pf.module(args.module)
    degree_cap = _setting(args, pf.params, "degree_cap", DEFAULT_DEGREE_CAP)
    _emit(reg_to_text(regularity(M, degree_cap=degree_cap)) + "\n", args.out)
    return 0


def cmd_ext_tor(args):
    """`ext` or `tor`, as args.command says."""
    pf = _load(args.problem)
    M = pf.module(args.module)
    N = pf.module(args.coeff)
    degree_cap = _setting(args, pf.params, "degree_cap", DEFAULT_DEGREE_CAP)
    fn = ext if args.command == "ext" else tor
    E = fn(M, N, args.index, degree_cap=degree_cap)
    value = regularity(E.presentation, degree_cap=degree_cap)
    gens = ",".join(str(a) for a in E.presentation.generator_degrees)
    lines = [
        f"{args.command}^{args.index} generators [{gens}] "
        f"relations {E.presentation.relations.source.rank}",
        f"reg {reg_to_text(value)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _candidate_ideals(pf):
    names = pf.params.get("candidates", ())
    return [pf.ideal(name) for name in names]


def cmd_rho(args):
    pf = _load(args.problem)
    N = pf.module(args.module)
    I = pf.ideal(args.ideal)
    degree_cap = _setting(args, pf.params, "degree_cap", DEFAULT_DEGREE_CAP)
    J, n = rho_upper(
        I, N, candidates=_candidate_ideals(pf),
        n_max=args.nmax, degree_cap=degree_cap,
    )
    lines = [f"rho upper bound: {J.d1()}", f"witness {J!r} stable from n={n}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_sweep(pf, args):
    if not pf.ring.relations:
        raise ProblemSemanticError(
            f"{args.command} needs a quotient line: A = Q/(z) with z nonempty"
        )
    M = pf.module(args.module)
    N = pf.module(args.coeff)
    I = pf.ideal(args.ideal)
    degree_cap = _setting(args, pf.params, "degree_cap", DEFAULT_DEGREE_CAP)
    i_max = _setting(args, pf.params, "imax", 3)
    n_max = _setting(args, pf.params, "nmax", 3)
    variants = ("power", "quotient") if args.variant == "both" else (args.variant,)
    T = sweep(M, N, I, i_max, n_max, variants=variants, degree_cap=degree_cap)
    return T, I, N, degree_cap


def _table_csv(T) -> str:
    lines = ["variant,parity,i,n,reg"]
    for variant, parity, i, n, value in T.rows():
        lines.append(f"{variant},{parity},{i},{n},{reg_to_text(value)}")
    return "\n".join(lines) + "\n"


def _cell_json(value):
    if value == NEG_INF:
        return "-inf"
    if isinstance(value, str):
        return value
    return int(value)


def _table_json(T, rho_value=None) -> dict:
    return {
        "metadata": {
            "field": T.metadata["field"],
            "degree_cap": T.metadata["degree_cap"],
            "homological_cap": T.metadata["homological_cap"],
            "f": T.metadata["f"],
            "rho_upper": rho_value,
            "tool_version": __version__,
        },
        "cells": [
            {"variant": v, "parity": p, "i": i, "n": n, "reg": _cell_json(val)}
            for v, p, i, n, val in T.rows()
        ],
    }


def cmd_sweep(args):
    pf = _load(args.problem)
    T, _, _, _ = _run_sweep(pf, args)
    if args.csv:
        _emit(_table_csv(T), args.csv)
    if args.json:
        _emit(json.dumps(_table_json(T), indent=1) + "\n", args.json)
    if not args.csv and not args.json:
        sys.stdout.write(_table_csv(T))
    return 0


def _fit_json(fit):
    return {key: getattr(fit, key) for key in ("status", "slope", "intercept", "onset")}


def cmd_verify(args):
    pf = _load(args.problem)
    T, I, N, degree_cap = _run_sweep(pf, args)
    f = T.metadata["f"]
    rho_value = args.rho
    if rho_value is None:
        J, _ = rho_upper(I, N, candidates=_candidate_ideals(pf), degree_cap=degree_cap)
        rho_value = J.d1()
    report = verify_bounds(T, rho_value, f, const=args.const)
    payload = _table_json(T, rho_value)
    payload["report"] = {
        "rho_upper": rho_value,
        "f": f,
        "e_hat": {
            f"{v}/{p}": _cell_json(report.e_hat[(v, p)])
            for (v, p) in sorted(report.e_hat)
        },
        "tightness": {
            f"{v}/{p}": [list(c) for c in report.tightness[(v, p)]]
            for (v, p) in sorted(report.tightness)
        },
        "violations": [list(c) for c in report.violations],
        "unverified": [list(c) for c in report.unverified],
        "fits": {
            axis: {
                f"{v}/{p}": _fit_json(fit)
                for (v, p), fit in sorted(report.fits[axis].items())
            }
            for axis in ("i", "n")
        },
        "note": report.note,
    }
    _emit(json.dumps(payload, indent=1) + "\n", args.json)
    if report.violations:
        raise BoundViolation(f"{len(report.violations)} cell(s) violate the bound")
    return 0


#: the top-level keys of trigraded-bound data
TRIGRADED_KEYS = ("spec", "data", "imax", "nmax")


def _unique_keys(pairs):
    """A JSON object as a dict; a key that appears twice is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ProblemSemanticError(f"bad trigraded data: repeated key {key!r}")
        obj[key] = value
    return obj


def cmd_trigraded_bound(args):
    try:
        blob = json.loads(_read(args.data), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ProblemSyntaxError(str(exc), exc.lineno, exc.colno)
    except RecursionError:
        raise ProblemSemanticError("bad trigraded data: JSON nested too deeply") from None
    try:
        unknown = sorted(set(blob) - set(TRIGRADED_KEYS))
        if unknown:
            raise ValueError(
                f"unknown key {unknown[0]!r} (known: {', '.join(TRIGRADED_KEYS)})"
            )
        spec = TrigradedRingSpec(**blob["spec"])
        data = TrigradedFreeData(blob["data"], spec)
        cs, e = bound_constants(spec, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemSemanticError(f"bad trigraded data: {exc}")
    i_max = _setting(args, blob, "imax", 9)
    n_max = _setting(args, blob, "nmax", 9)
    checks = grid_bound_check(spec, data, i_max, n_max)
    payload = {
        "metadata": {"tool_version": __version__},
        "c": {str(l): cl for l, cl in sorted(cs.items())},
        "e": e,
        "imax": i_max,
        "nmax": n_max,
        "bound": [
            [spec.g1 * i + spec.h1 * n + e for n in range(n_max + 1)]
            for i in range(i_max + 1)
        ],
        "checks_passed": checks,
    }
    _emit(json.dumps(payload, indent=1) + "\n", args.out)
    if not checks:
        raise BoundViolation("max twist exceeded the bound line on the grid")
    return 0


# -- argument wiring ------------------------------------------------------------


def _add_common(sp, fn, coeff=False, ideal=False):
    sp.add_argument("problem", help="problem file path")
    sp.add_argument("--module", required=True, help="module name")
    if coeff:
        sp.add_argument("--coeff", required=True, help="coefficient module name")
    if ideal:
        sp.add_argument("--ideal", required=True, help="ideal name")
    sp.add_argument("--degree-cap", dest="degree_cap", type=nonnegative, default=None)
    sp.set_defaults(fn=fn)


def _resolve_args(sp):
    _add_common(sp, cmd_resolve)
    sp.add_argument("--over", choices=("A", "Q"), default="A")
    sp.add_argument(
        "--cap", type=nonnegative, default=6, help="homological cap (--over A only)"
    )
    sp.add_argument("--out", default=None, help="write output here (atomic)")


def _reg_args(sp):
    _add_common(sp, cmd_reg)
    sp.add_argument("--out", default=None, help="write output here (atomic)")


def _ext_tor_args(sp):
    _add_common(sp, cmd_ext_tor, coeff=True)
    sp.add_argument("--index", type=nonnegative, required=True)
    sp.add_argument("--out", default=None, help="write output here (atomic)")


def _rho_args(sp):
    _add_common(sp, cmd_rho, ideal=True)
    sp.add_argument("--nmax", type=nonnegative, default=3, help="reduction check horizon")
    sp.add_argument("--out", default=None, help="write output here (atomic)")


def _grid_args(sp, fn):
    _add_common(sp, fn, coeff=True, ideal=True)
    sp.add_argument("--imax", type=nonnegative, default=None)
    sp.add_argument("--nmax", type=nonnegative, default=None)
    sp.add_argument("--variant", choices=("power", "quotient", "both"), default="power")
    sp.add_argument("--json", default=None)
    if fn is cmd_sweep:
        sp.add_argument("--csv", default=None)
    else:
        sp.add_argument("--rho", type=signed, default=None, help="rho upper bound")
        sp.add_argument("--const", type=signed, default=None)


def _trigraded_args(sp):
    sp.add_argument("data", help="JSON file with spec/data blocks")
    sp.add_argument("--imax", type=nonnegative, default=None)
    sp.add_argument("--nmax", type=nonnegative, default=None)
    sp.add_argument("--out", default=None, help="write output here (atomic)")
    sp.set_defaults(fn=cmd_trigraded_bound)


#: subcommand -> (help line, function adding its arguments and its fn)
COMMANDS = {
    "resolve": ("minimal graded free resolution", _resolve_args),
    "reg": ("Castelnuovo-Mumford regularity", _reg_args),
    "ext": ("one Ext module and its regularity", _ext_tor_args),
    "tor": ("one Tor module and its regularity", _ext_tor_args),
    "rho": ("certified upper bound for rho_N(I)", _rho_args),
    "sweep": ("sweep an (i, n) grid", lambda sp: _grid_args(sp, cmd_sweep)),
    "verify": ("verify an (i, n) grid", lambda sp: _grid_args(sp, cmd_verify)),
    "trigraded-bound": ("twist-calculus bound line from free data", _trigraded_args),
}


def build_parser() -> _Parser:
    ap = _Parser(prog="cmreg", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"cmreg {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (line, add_args) in COMMANDS.items():
        add_args(sub.add_parser(name, help=line))
    return ap


def _parse(argv):
    """build_parser().parse_args(argv), but only argv[0]'s parser when that suffices."""
    if argv and argv[0] in COMMANDS:
        sp = _Parser(prog=f"cmreg {argv[0]}")
        COMMANDS[argv[0]][1](sp)
        args, rest = sp.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except DegreeCapExceeded as exc:
        print(f"cmreg: degree cap exceeded: {exc}", file=sys.stderr)
        return 2
    except BoundViolation as exc:
        print(f"cmreg: bound violation: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"cmreg: internal consistency: {exc}", file=sys.stderr)
        return 4
    except CmregError as exc:
        print(f"cmreg: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
