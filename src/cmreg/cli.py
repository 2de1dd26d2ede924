"""Command line surface.

Subcommands: resolve, reg, ext, tor, rho, sweep, verify, trigraded-bound.
Exit codes: 0 success, 1 parse/semantic error, 2 degree-cap breach,
3 bound violation, 4 internal consistency failure.

Output files are written atomically (unique temp file, fsync, rename).
CSV rows are `variant,parity,i,n,reg` with the literal `-inf` for vanishing
modules and `cap` for cells abandoned at the degree cap; the JSON artifact
mirrors the CSV cells plus a metadata block.  CMREG_THREADS controls cell
parallelism in sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .freemod import NEG_INF
from .groebner import DEFAULT_DEGREE_CAP
from .problemfile import parse_problem
from .rees import rho_upper
from .regularity import regularity
from .resolution import betti_table, resolve_over_A, resolve_over_Q
from .rings import QuotientRing
from .sweeps import reg_to_text, sweep, verify_bounds
from .trigraded import (
    TrigradedFreeData,
    TrigradedRingSpec,
    bound_constants,
    component_bound,
    max_twist_bound_check,
)


# mkstemp creates 0600 files; outputs get the mode open() would give them
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path: str, text: str):
    """Replace path with text in one step.  Each call writes its own temp
    file beside path, so concurrent writers never share one, and readers
    see either the old file or one whole payload."""
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
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (the parse-error code) instead of
    argparse's default 2, which this tool reserves for cap breaches."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_WithMessage(message)


class SystemExit_WithMessage(Exception):
    def __init__(self, message):
        super().__init__(message)


def _load(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemSemanticError(f"cannot read {path}: {exc}")
    return parse_problem(text)


def _pick_caps(pf, args):
    degree_cap = getattr(args, "degree_cap", None)
    if degree_cap is None:
        degree_cap = pf.params.get("degree_cap", DEFAULT_DEGREE_CAP)
    return degree_cap


def _reg_text(value) -> str:
    return "-inf" if value == NEG_INF else str(int(value))


# -- subcommands ----------------------------------------------------------------


def cmd_resolve(args):
    pf = _load(args.problem)
    M = pf.module(args.module)
    degree_cap = _pick_caps(pf, args)
    over_q = args.over == "Q" or not isinstance(pf.ring, QuotientRing)
    if over_q:
        from .regularity import present_over_Q

        MQ = present_over_Q(M) if isinstance(pf.ring, QuotientRing) else M
        R = resolve_over_Q(MQ, degree_cap=degree_cap)
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
    value = regularity(M, degree_cap=_pick_caps(pf, args))
    _emit(_reg_text(value) + "\n", args.out)
    return 0


def _cmd_ext_tor(args, which):
    from .ext_tor import ext as ext_fn, tor as tor_fn

    pf = _load(args.problem)
    M = pf.module(args.module)
    N = pf.module(args.coeff)
    degree_cap = _pick_caps(pf, args)
    fn = ext_fn if which == "ext" else tor_fn
    E = fn(M, N, args.index, degree_cap=degree_cap)
    value = regularity(E.presentation, degree_cap=degree_cap)
    gens = ",".join(str(a) for a in E.presentation.generator_degrees)
    lines = [
        f"{which}^{args.index} generators [{gens}] "
        f"relations {E.presentation.relations.source.rank}",
        f"reg {_reg_text(value)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_ext(args):
    return _cmd_ext_tor(args, "ext")


def cmd_tor(args):
    return _cmd_ext_tor(args, "tor")


def _candidate_ideals(pf, args):
    names = pf.params.get("candidates", ())
    return [pf.ideal(name) for name in names]


def cmd_rho(args):
    pf = _load(args.problem)
    N = pf.module(args.module)
    I = pf.ideal(args.ideal)
    degree_cap = _pick_caps(pf, args)
    bound = rho_upper(
        I, N, candidates=_candidate_ideals(pf, args),
        n_max=args.nmax, degree_cap=degree_cap,
    )
    witness = "unit" if bound.witness is None else repr(bound.witness)
    lines = [
        f"rho {bound.label}: {bound.value}",
        f"witness {witness} stable from n={bound.certificate.witness}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_sweep(pf, args):
    M = pf.module(args.module)
    N = pf.module(args.coeff)
    I = pf.ideal(args.ideal)
    degree_cap = _pick_caps(pf, args)
    i_max = args.imax if args.imax is not None else pf.params.get("imax", 3)
    n_max = args.nmax if args.nmax is not None else pf.params.get("nmax", 3)
    hom_cap = getattr(args, "hom_cap", None) or pf.params.get("hom_cap")
    variants = ("power", "quotient") if args.variant == "both" else (args.variant,)
    T = sweep(
        M, N, I, i_max, n_max, variants=variants,
        degree_cap=degree_cap, hom_cap=hom_cap,
    )
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
        atomic_write(args.csv, _table_csv(T))
    if args.json:
        atomic_write(args.json, json.dumps(_table_json(T, args.rho), indent=1) + "\n")
    if not args.csv and not args.json:
        sys.stdout.write(_table_csv(T))
    return 0


def _fit_json(fit):
    return {
        "status": fit.status,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "onset": fit.onset,
    }


def cmd_verify(args):
    pf = _load(args.problem)
    T, I, N, degree_cap = _run_sweep(pf, args)
    f = args.f if args.f is not None else T.metadata["f"]
    if f is None:
        raise ProblemSemanticError("no quotient relations: pass --f explicitly")
    if args.rho is not None:
        rho_value = args.rho
    else:
        rho_value = rho_upper(
            I, N, candidates=_candidate_ideals(pf, args),
            degree_cap=degree_cap,
        ).value
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
    text = json.dumps(payload, indent=1) + "\n"
    _emit(text, args.json)
    if report.violations:
        raise BoundViolation(
            f"{len(report.violations)} cell(s) violate the bound"
        )
    return 0


def cmd_trigraded_bound(args):
    try:
        with open(args.data) as fh:
            blob = json.load(fh)
    except OSError as exc:
        raise ProblemSemanticError(f"cannot read {args.data}: {exc}")
    except json.JSONDecodeError as exc:
        raise ProblemSyntaxError(str(exc), exc.lineno, exc.colno)
    try:
        spec = TrigradedRingSpec(
            d=blob["spec"]["d"], b=blob["spec"]["b"], c=blob["spec"]["c"],
            h=blob["spec"]["h"], g=blob["spec"]["g"],
        )
        data = TrigradedFreeData(blob["data"], spec)
        i_max = int(blob.get("imax", args.imax))
        n_max = int(blob.get("nmax", args.nmax))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemSemanticError(f"bad trigraded data: {exc}")
    cs, e = bound_constants(spec, data)
    checks = all(
        max_twist_bound_check(spec, data, l, i, n)
        for l in sorted(data.levels)
        for i in range(i_max + 1)
        for n in range(n_max + 1)
    )
    payload = {
        "metadata": {"tool_version": __version__},
        "c": {str(l): cl for l, cl in sorted(cs.items())},
        "e": e,
        "imax": i_max,
        "nmax": n_max,
        "bound": [
            [component_bound(spec, data, i, n) for n in range(n_max + 1)]
            for i in range(i_max + 1)
        ],
        "checks_passed": checks,
    }
    _emit(json.dumps(payload, indent=1) + "\n", args.out)
    if not checks:
        raise BoundViolation("max twist exceeded the bound line on the grid")
    return 0


# -- argument wiring ------------------------------------------------------------


def _add_common(sp, module=True, coeff=False, ideal=False):
    sp.add_argument("problem", help="problem file path")
    if module:
        sp.add_argument("--module", required=True, help="module name")
    if coeff:
        sp.add_argument("--coeff", required=True, help="coefficient module name")
    if ideal:
        sp.add_argument("--ideal", required=True, help="ideal name")
    sp.add_argument("--degree-cap", dest="degree_cap", type=int, default=None)
    sp.add_argument("--out", default=None, help="write output here (atomic)")


def build_parser() -> _Parser:
    ap = _Parser(prog="cmreg", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"cmreg {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("resolve", help="minimal graded free resolution")
    _add_common(sp)
    sp.add_argument("--over", choices=("A", "Q"), default="A")
    sp.add_argument("--cap", type=int, default=6, help="homological cap over A")
    sp.set_defaults(fn=cmd_resolve)

    sp = sub.add_parser("reg", help="Castelnuovo-Mumford regularity")
    _add_common(sp)
    sp.set_defaults(fn=cmd_reg)

    sp = sub.add_parser("ext", help="one Ext module and its regularity")
    _add_common(sp, coeff=True)
    sp.add_argument("--index", type=int, required=True)
    sp.set_defaults(fn=cmd_ext)

    sp = sub.add_parser("tor", help="one Tor module and its regularity")
    _add_common(sp, coeff=True)
    sp.add_argument("--index", type=int, required=True)
    sp.set_defaults(fn=cmd_tor)

    sp = sub.add_parser("rho", help="certified upper bound for rho_N(I)")
    _add_common(sp, ideal=True)
    sp.add_argument("--nmax", type=int, default=3, help="reduction check horizon")
    sp.set_defaults(fn=cmd_rho)

    for name, fn in (("sweep", cmd_sweep), ("verify", cmd_verify)):
        sp = sub.add_parser(name, help=f"{name} an (i, n) grid")
        _add_common(sp, coeff=True, ideal=True)
        sp.add_argument("--imax", type=int, default=None)
        sp.add_argument("--nmax", type=int, default=None)
        sp.add_argument("--hom-cap", dest="hom_cap", type=int, default=None)
        sp.add_argument(
            "--variant", choices=("power", "quotient", "both"), default="power"
        )
        sp.add_argument("--rho", type=int, default=None, help="rho upper bound")
        sp.add_argument("--csv", default=None)
        sp.add_argument("--json", default=None)
        if name == "verify":
            sp.add_argument("--f", type=int, default=None)
            sp.add_argument("--const", type=int, default=None)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser(
        "trigraded-bound", help="twist-calculus bound line from free data"
    )
    sp.add_argument("data", help="JSON file with spec/data blocks")
    sp.add_argument("--imax", type=int, default=9)
    sp.add_argument("--nmax", type=int, default=9)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_trigraded_bound)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except SystemExit_WithMessage as exc:
        print(f"cmreg: {exc}", file=sys.stderr)
        return 1
    except (ProblemSyntaxError, ProblemSemanticError) as exc:
        print(f"cmreg: {exc}", file=sys.stderr)
        return 1
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
