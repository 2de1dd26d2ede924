"""
Problem files and the cmreg command line
========================================

Every CLI subcommand reads its ring, modules, and ideals from a small
text format: one `ring` line, an optional `quotient` line, then named
modules and ideals, and an optional `params` line with default grid
sizes.  This script parses a problem file with the library API, then
drives the installed `cmreg` entry point in-process.
"""

import json
import os
import tempfile

from cmreg.cli import main
from cmreg.problemfile import parse_problem, pretty_print

PROBLEM = """\
ring d=2 char=32003
quotient: x1*x2
module M: targets [0]; relations [[x1]]
module N: targets [1]; relations [[x2]]
ideal I: x1
params: imax=3 nmax=4 candidates=I
"""

# -- parsing --------------------------------------------------------------

prob = parse_problem(PROBLEM)
print("ring:", prob.ring)
print("modules:", sorted(prob.modules))
print("ideal I generators:", [repr(g) for g in prob.ideals["I"].generators])
print("params:", prob.params)

# pretty_print is a fixed point: parsing its output reproduces it.
text = pretty_print(prob)
assert pretty_print(parse_problem(text)) == text
print()
print("normalized problem text:")
print(text)

# Errors carry line:column positions.
try:
    parse_problem("ring d=2 char=32003\nmodule M targets [0]\n")
except Exception as e:
    print("syntax error:", e)

# -- the CLI, called in-process -------------------------------------------

# main(argv) is the console entry point; the demo calls it directly so
# the output lands in this terminal.  Exit codes: 0 success, 1 usage or
# problem-file errors or an output path that cannot be written, 2 degree
# cap exceeded, 3 bound violation, 4 internal consistency failure.  The
# work directory and everything written into it go away at the end.
with tempfile.TemporaryDirectory(prefix="cmreg_demo_") as workdir:
    path = os.path.join(workdir, "reduced.prob")
    with open(path, "w") as fh:
        fh.write(PROBLEM)

    print()
    print("$ cmreg reg", path, "--module N")
    main(["reg", path, "--module", "N"])

    print()
    print("$ cmreg ext", path, "--module M --coeff N --index 3")
    main(["ext", path, "--module", "M", "--coeff", "N", "--index", "3"])

    print()
    print("$ cmreg rho", path, "--module N --ideal I")
    main(["rho", path, "--module", "N", "--ideal", "I"])

    # sweep writes --csv and --json files by atomic replacement, so a crash
    # can never leave half a file behind.
    csv_path = os.path.join(workdir, "grid.csv")
    json_path = os.path.join(workdir, "grid.json")
    code = main([
        "sweep", path, "--module", "M", "--coeff", "N", "--ideal", "I",
        "--imax", "2", "--nmax", "2", "--variant", "both",
        "--csv", csv_path, "--json", json_path,
    ])
    assert code == 0
    print()
    print("$ cmreg sweep ... --csv grid.csv --json grid.json")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    print("CSV header + first rows:")
    for line in lines[:5]:
        print("   ", line)
    with open(json_path) as fh:
        payload = json.load(fh)
    print("JSON metadata f =", payload["metadata"]["f"],
          " cells =", len(payload["cells"]))

    # verify runs the sweep, bounds rho, and checks reg <= rho*n - f*i + e
    # cell by cell; exit code 3 would signal a violation, 0 means every
    # finite cell obeyed it.  The full report goes to the --json file.
    report_path = os.path.join(workdir, "report.json")
    print()
    print("$ cmreg verify ... --json report.json")
    code = main([
        "verify", path, "--module", "M", "--coeff", "N", "--ideal", "I",
        "--json", report_path,
    ])
    with open(report_path) as fh:
        report = json.load(fh)["report"]
    print("exit code:", code)
    print("rho_upper:", report["rho_upper"], " f:", report["f"])
    print("e_hat:", report["e_hat"])
    print("violations:", report["violations"])
    print("odd power fit along i:", report["fits"]["i"]["power/odd"])
