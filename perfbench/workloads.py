"""The benchmark's workloads: inputs, the timed calls, and answer checks.

Each workload is a list of items.  `setup` builds the items (it runs before
the timed region), `run` makes the timed call for one item through cmreg's
public entry points, and `check` compares that item's answer with values the
benchmark knows independently, returning (answers checked, answers wrong,
messages).  A wrong cell, a wrong Betti table or bound entry, a `cap` cell, a
non-zero exit code and an exception each count as a wrong answer.
"""

from __future__ import annotations

import json
import os
from typing import Callable, NamedTuple

from cmreg import cli
from cmreg.problemfile import parse_problem
from cmreg.regularity import betti_oracle, present_over_Q
from cmreg.resolution import betti_table, minimize, resolve_over_Q

import generators

HERE = os.path.dirname(os.path.abspath(__file__))
NEG_INF = "-inf"


def _problem(name):
    return os.path.join(HERE, "problems", name + ".prob")


def _cli(argv, out):
    """Run the CLI in-process; the answer is (exit code, output text)."""
    rc = cli.main(argv)
    text = None
    if os.path.exists(out):
        with open(out) as fh:
            text = fh.read()
    return rc, text


# -- cmreg verify ----------------------------------------------------------------


def _hypersurface(variant, parity, i, n):
    return -2 * i if parity == "even" else -2 * i - 1


def _two_relation(variant, parity, i, n):
    return -3 * i + 1 if parity == "even" else -3 * i


def _reduced_hypersurface(variant, parity, i, n):
    if variant == "power":
        return NEG_INF if parity == "even" else n - 2 * i
    if n == 0:
        return NEG_INF
    return n - 2 * i if parity == "even" else -2 * i


#: problem -> (variants, closed form of every cell, rho, f); the closed forms
#: are acceptance criteria 1-3, which hold on these larger grids as well
PAPER_EXAMPLES = {
    "hypersurface": (("power",), _hypersurface, 0, 2),
    "two_relation": (("power",), _two_relation, 0, 2),
    "reduced_hypersurface": (("power", "quotient"), _reduced_hypersurface, 1, 2),
}


def _verify_items(names, workdir):
    items = []
    for name in names:
        path = _problem(name)
        with open(path) as fh:
            pf = parse_problem(fh.read())
        variants = PAPER_EXAMPLES[name][0] if name in PAPER_EXAMPLES else ("power",)
        out = os.path.join(workdir, name + ".json")
        argv = [
            "verify", path, "--module", "M", "--coeff", "N", "--ideal", "I",
            "--variant", "both" if len(variants) == 2 else variants[0],
            "--json", out,
        ]
        grid = (pf.params["imax"], pf.params["nmax"], variants)
        items.append({"name": name, "argv": argv, "out": out, "grid": grid})
    return items


def _run_verify(item):
    if os.path.exists(item["out"]):
        os.remove(item["out"])
    return _cli(item["argv"], item["out"])


def _grid_keys(grid):
    imax, nmax, variants = grid
    return [
        (v, p, i, n)
        for v in variants for p in ("even", "odd")
        for i in range(imax + 1) for n in range(nmax + 1)
    ]


def _check_cells(payload, expected):
    """expected maps (variant, parity, i, n) to the right value; a missing,
    extra, `cap` or differing cell is wrong."""
    got = {(c["variant"], c["parity"], c["i"], c["n"]): c["reg"] for c in payload["cells"]}
    wrong = []
    for key in sorted(set(got) | set(expected), key=str):
        if got.get(key) != expected.get(key):
            wrong.append(f"cell {key}: got {got.get(key)!r}, want {expected.get(key)!r}")
    return len(set(got) | set(expected)), wrong


def e_hat(expected, rho, f):
    """Fitted constant per (variant, parity): the largest reg - rho*n + f*i
    over finite cells, or -inf."""
    out = {}
    for (v, p, i, n), reg in expected.items():
        key = f"{v}/{p}"
        cur = out.get(key, NEG_INF)
        if reg != NEG_INF:
            r = reg - rho * n + f * i
            cur = r if cur == NEG_INF else max(cur, r)
        out[key] = cur
    return out


def _check_report(report, rho, f, e):
    want = {"rho_upper": rho, "f": f, "e_hat": e, "violations": [], "unverified": []}
    return [
        f"report {k}: got {report.get(k)!r}, want {v!r}"
        for k, v in want.items() if report.get(k) != v
    ]


def check_paper_example(name, grid, answer):
    rc, text = answer
    if rc != 0 or text is None:
        return len(_grid_keys(grid)) + 1, len(_grid_keys(grid)) + 1, [f"{name}: exit {rc}"]
    payload = json.loads(text)
    _, form, rho, f = PAPER_EXAMPLES[name]
    expected = {key: form(*key) for key in _grid_keys(grid)}
    n, wrong = _check_cells(payload, expected)
    wrong += _check_report(payload["report"], rho, f, e_hat(expected, rho, f))
    return n + 1, len(wrong), [f"{name}: {w}" for w in wrong]


def _load_reference():
    with open(os.path.join(HERE, "reference", "verify_ci3.json")) as fh:
        return json.load(fh)


def check_ci3(answer, reference):
    """Cells and report equal the reference; rho, f and e_hat are stated
    explicitly as well, so the reference cannot drift unnoticed."""
    rc, text = answer
    ncells = len(reference["cells"])
    if rc != 0 or text is None:
        return ncells + 1, ncells + 1, [f"ci3: exit {rc}"]
    payload = json.loads(text)
    expected = {(c["variant"], c["parity"], c["i"], c["n"]): c["reg"] for c in reference["cells"]}
    n, wrong = _check_cells(payload, expected)
    wrong += _check_report(
        payload["report"], 1, 2, {"power/even": 1, "power/odd": 0}
    )
    if payload["report"] != reference["report"] and not wrong:
        wrong.append("report differs from the reference")
    return n + 1, len(wrong), [f"ci3: {w}" for w in wrong]


# -- Betti tables ------------------------------------------------------------------

#: modules per pass, the first draws of the suite's distribution.  Item counts
#: are odd so that item_ms_p50 is the time of one item, not the mean of the
#: two middle items, which can differ several-fold.
BETTI_MODULES = 13


def _run_betti(M, nonminimal):
    MQ = present_over_Q(M)
    tables = {
        "oracle": betti_oracle(M),
        "resolve_over_Q": betti_table(resolve_over_Q(MQ)),
    }
    if nonminimal:
        tables["minimize"] = betti_table(minimize(resolve_over_Q(MQ, minimal=False)))
    return {k: sorted(t.entries.items()) for k, t in tables.items()}


def check_betti(answer):
    """The Koszul-homology oracle shares no code with the resolutions; every
    other table must equal it entry by entry."""
    oracle = answer["oracle"]
    wrong = [
        f"{k} table {t} != oracle {oracle}"
        for k, t in answer.items() if k != "oracle" and t != oracle
    ]
    return 1, 1 if wrong else 0, wrong


# -- trigraded bound lines -----------------------------------------------------------

TRIGRADED_SETS = 51  # odd, as BETTI_MODULES
GRID = 10  # the CLI's default grid is 0..9 x 0..9


def _trigraded_items(seed, workdir):
    items = []
    for k, blob in enumerate(generators.trigraded_population(seed, TRIGRADED_SETS)):
        path = os.path.join(workdir, f"trigraded-{k}.json")
        with open(path, "w") as fh:
            json.dump(blob, fh)
        out = os.path.join(workdir, f"trigraded-{k}.out.json")
        items.append({"blob": blob, "argv": ["trigraded-bound", path, "--out", out], "out": out})
    return items


def bound_line(blob):
    """(c_l per level, e, bound grid) of the twist calculus, from the data
    alone: c_l = max(a - g1*b1 - h1*b2), e = max(c_l - l), and the bound at
    (i, n) is g1*i + h1*n + e."""
    g1, h1 = max(blob["spec"]["g"]), max(blob["spec"]["h"])
    cs = {
        l: max(a - g1 * b1 - h1 * b2 for b1, b2, a in gens)
        for l, gens in blob["data"].items() if gens
    }
    e = max(cl - int(l) for l, cl in cs.items())
    grid = [[g1 * i + h1 * n + e for n in range(GRID)] for i in range(GRID)]
    return cs, e, grid


def check_trigraded(blob, answer):
    rc, text = answer
    if rc != 0 or text is None:
        return 1, 1, [f"trigraded: exit {rc}"]
    payload = json.loads(text)
    cs, e, grid = bound_line(blob)
    wrong = []
    if payload.get("checks_passed") is not True:
        wrong.append("checks_passed is not true")
    if payload.get("c") != cs or payload.get("e") != e:
        wrong.append(f"constants c={payload.get('c')} e={payload.get('e')}, want c={cs} e={e}")
    if payload.get("bound") != grid:
        wrong.append("bound grid differs from g1*i + h1*n + e")
    return 1, 1 if wrong else 0, wrong


# -- the workload table ----------------------------------------------------------------


class Workload(NamedTuple):
    setup: Callable  # (seed, workdir) -> items
    run: Callable  # item -> answer
    check: Callable  # (item, answer) -> (checked, wrong, messages)


def _check_verify(item, answer):
    if item["name"] == "ci3":
        return check_ci3(answer, _load_reference())
    return check_paper_example(item["name"], item["grid"], answer)


def _verify_workload(names):
    return Workload(
        lambda seed, workdir: _verify_items(names, workdir), _run_verify, _check_verify
    )


def _betti_workload(nonminimal):
    return Workload(
        lambda seed, workdir: generators.betti_population(seed, BETTI_MODULES),
        lambda M: _run_betti(M, nonminimal),
        lambda M, answer: check_betti(answer),
    )


WORKLOADS = {
    "verify_ci3": _verify_workload(["ci3"]),
    "verify_paper_examples": _verify_workload(list(PAPER_EXAMPLES)),
    "betti_oracle_q3": _betti_workload(nonminimal=False),
    "betti_nonminimal_q3": _betti_workload(nonminimal=True),
    "trigraded_grid": Workload(
        _trigraded_items,
        lambda item: _cli(item["argv"], item["out"]),
        lambda item, answer: check_trigraded(item["blob"], answer),
    ),
}
