from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from helpers import PROBLEMS
from test_cli_options_read import ARGV, GRID, PROBLEM, TRIGRADED

import cmreg.cli as cli
from cmreg.cli import atomic_write, build_parser, main
from cmreg.errors import (
    BoundViolation,
    CmregError,
    DegreeCapExceeded,
    InternalConsistencyError,
)
from cmreg.trigraded import TrigradedRingSpec

HYPERSURFACE = """\
ring d=1 char=32003
quotient: x1^2
module M: targets [0]; relations [[x1]]
ideal I: unit
"""

REDUCED = """\
ring d=2 char=32003
quotient: x1*x2
module M: targets [0]; relations [[x1]]
module N: targets [1]; relations [[x2]]
ideal I: x1
params: imax=3 nmax=4 candidates=I
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_reg_free_module(tmp_path, capsys):
    prob = _write(
        tmp_path, "free.prob",
        "ring d=2 char=32003\nmodule M: targets [3]; relations []\n",
    )
    assert main(["reg", prob, "--module", "M"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_reg_neg_inf(tmp_path, capsys):
    prob = _write(
        tmp_path, "zero.prob",
        "ring d=1 char=32003\nmodule M: targets [0]; relations [[1]]\n",
    )
    assert main(["reg", prob, "--module", "M"]) == 0
    assert capsys.readouterr().out.strip() == "-inf"


def test_resolve_over_A(tmp_path, capsys):
    prob = _write(tmp_path, "hyp.prob", HYPERSURFACE)
    assert main(["resolve", prob, "--module", "M", "--cap", "4"]) == 0
    out = capsys.readouterr().out
    assert "minimal=True complete=False length=4" in out
    assert "F_0: [0]" in out and "F_4: [4]" in out


def test_resolve_over_Q(tmp_path, capsys):
    prob = _write(tmp_path, "hyp.prob", HYPERSURFACE)
    assert main(["resolve", prob, "--module", "M", "--over", "Q"]) == 0
    out = capsys.readouterr().out
    assert "complete=True" in out


CI3 = str(Path(__file__).parents[1] / "perfbench" / "problems" / "ci3.prob")


def test_verify_fits_a_capped_line_as_inconclusive(tmp_path):
    # at degree cap 6 the cell (0, 5) of power/odd and of quotient/even
    # hits the cap: each i-line is that one cell, unknown, so not "empty"
    out = tmp_path / "v.json"
    argv = ["verify", CI3, "--module", "M", "--coeff", "N", "--ideal", "I"]
    argv += ["--variant", "both", "--imax", "0", "--nmax", "5", "--degree-cap", "6"]
    assert main([*argv, "--json", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["unverified"] == [["power", "odd", 0, 5], ["quotient", "even", 0, 5]]
    statuses = {line: fit["status"] for line, fit in report["fits"]["i"].items()}
    assert statuses == {
        "power/even": "empty",
        "power/odd": "inconclusive",
        "quotient/even": "inconclusive",
        "quotient/odd": "inconclusive",
    }


def test_ext_and_tor_print_minimal_presentations(capsys):
    # on ci3.prob every Ext and Tor module of A/(x1,x3) against A/(x2) is
    # presented with its minimal generators and minimal relations
    expected = {
        "ext": ["[1] relations 3", "[0,0] relations 6", "[-1] relations 3", "[-2] relations 3"],
        "tor": ["[0] relations 3", "[2] relations 3", "[3] relations 3", "[4] relations 3"],
    }
    regs = {"ext": [1, 0, -1, -2], "tor": [0, 2, 3, 4]}
    for which, lines in expected.items():
        for i, line in enumerate(lines):
            argv = [which, CI3, "--module", "M", "--coeff", "N", "--index", str(i)]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == f"{which}^{i} generators {line}\nreg {regs[which][i]}\n"


def test_vanishing_ext_prints_no_generators(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    assert main(["ext", prob, "--module", "M", "--coeff", "N", "--index", "0"]) == 0
    assert capsys.readouterr().out == "ext^0 generators [] relations 0\nreg -inf\n"


def test_ext_and_tor_commands(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    assert main(["ext", prob, "--module", "M", "--coeff", "N", "--index", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ext^1 generators")
    assert "reg 0" in out
    assert main(["tor", prob, "--module", "M", "--coeff", "N", "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tor^0 generators")
    assert "reg 1" in out


def test_rho_command(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    assert main(["rho", prob, "--module", "N", "--ideal", "I"]) == 0
    out = capsys.readouterr().out
    assert out == "rho upper bound: 1\nwitness Ideal(degrees=[1]) stable from n=0\n"


#: problem -> the whole `cmreg rho --module N --ideal I` output
RHO_OUTPUTS = {
    "hypersurface": "rho upper bound: 0\nwitness Ideal(unit) stable from n=0\n",
    "two_relation": "rho upper bound: 0\nwitness Ideal(unit) stable from n=0\n",
    "reduced_hypersurface": "rho upper bound: 1\nwitness Ideal(degrees=[1]) stable from n=0\n",
    "ci3": "rho upper bound: 1\nwitness Ideal(degrees=[1, 1]) stable from n=0\n",
}


@pytest.mark.parametrize("name", sorted(RHO_OUTPUTS))
def test_rho_output_on_the_shipped_problems(capsys, name):
    prob = str(PROBLEMS / f"{name}.prob")
    assert main(["rho", prob, "--module", "N", "--ideal", "I"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (RHO_OUTPUTS[name], "")


def test_atomic_write_concurrent_writers(tmp_path):
    path = str(tmp_path / "out.json")
    payloads = [f"writer {w}\n" * (2000 + w) for w in range(6)]
    errors = []

    def writer(text):
        try:
            for _ in range(15):
                atomic_write(path, text)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert open(path).read() in payloads
    assert os.listdir(tmp_path) == ["out.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


def test_atomic_write_failure_keeps_target(tmp_path):
    path = str(tmp_path / "out.csv")
    atomic_write(path, "old\n")
    with pytest.raises(TypeError):
        atomic_write(path, b"not text")
    assert open(path).read() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_atomic_write_keeps_fifo(tmp_path):
    # renaming a temp file over a FIFO (or a device) would replace the node
    path = str(tmp_path / "pipe")
    os.mkfifo(path)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(open(path).read()), daemon=True
    )
    reader.start()
    atomic_write(path, "payload\n")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == ["payload\n"]
    assert stat.S_ISFIFO(os.stat(path).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_sweep_stdout_csv_and_determinism(tmp_path, capsys):
    prob = _write(tmp_path, "hyp.prob", HYPERSURFACE)
    argv = ["sweep", prob, "--module", "M", "--coeff", "M", "--ideal", "I",
            "--imax", "1", "--nmax", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert lines[0] == "variant,parity,i,n,reg"
    assert lines[1] == "power,even,0,0,0"
    assert "power,even,1,0,-2" in lines
    assert "power,odd,1,1,-3" in lines
    assert len(lines) == 9
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_sweep_files_written_atomically(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    csv_path = str(tmp_path / "grid.csv")
    json_path = str(tmp_path / "grid.json")
    assert main([
        "sweep", prob, "--module", "M", "--coeff", "N", "--ideal", "I",
        "--imax", "1", "--nmax", "2", "--variant", "both",
        "--csv", csv_path, "--json", json_path,
    ]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(os.listdir(tmp_path)) == ["grid.csv", "grid.json", "red.prob"]
    rows = open(csv_path).read().strip().splitlines()
    # header + 2 variants * 2 parities * 2 i * 3 n
    assert len(rows) == 25
    assert "power,odd,0,2,2" in rows
    assert "power,even,0,0,-inf" in rows
    blob = json.loads(open(json_path).read())
    md = blob["metadata"]
    assert md["f"] == 2 and md["tool_version"]
    assert {"field", "degree_cap", "homological_cap", "rho_upper"} <= set(md)
    assert len(blob["cells"]) == 24
    cell = blob["cells"][0]
    assert {"variant", "parity", "i", "n", "reg"} == set(cell)


def test_sweep_uses_params_grid(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    assert main(["sweep", prob, "--module", "M", "--coeff", "N",
                 "--ideal", "I"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # params say imax=3 nmax=4: header + 2 parities * 4 i * 5 n
    assert len(lines) == 41


def test_verify_ok_and_report(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    json_path = str(tmp_path / "report.json")
    assert main([
        "verify", prob, "--module", "M", "--coeff", "N", "--ideal", "I",
        "--imax", "2", "--nmax", "3", "--variant", "both", "--json", json_path,
    ]) == 0
    report = json.loads(open(json_path).read())["report"]
    assert report["rho_upper"] == 1 and report["f"] == 2
    assert report["e_hat"]["power/odd"] == 0
    assert report["e_hat"]["power/even"] == "-inf"
    assert report["violations"] == []
    assert report["fits"]["i"]["power/odd"]["slope"] == -2
    assert report["note"]


def test_verify_const_violation_exit_3(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    code = main([
        "verify", prob, "--module", "M", "--coeff", "N", "--ideal", "I",
        "--imax", "1", "--nmax", "2", "--const", "-5",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "bound violation" in err


def test_degree_cap_exit_2(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    code = main([
        "sweep", prob, "--module", "M", "--coeff", "N", "--ideal", "I",
        "--imax", "1", "--nmax", "1", "--degree-cap", "1",
    ])
    assert code == 2
    assert "degree cap exceeded" in capsys.readouterr().err


def test_parse_and_usage_errors_exit_1(tmp_path, capsys):
    bad = _write(tmp_path, "bad.prob", "ring d=2\n")
    assert main(["reg", bad, "--module", "M"]) == 1
    assert "cmreg:" in capsys.readouterr().err
    prob = _write(tmp_path, "red.prob", REDUCED)
    # unknown module is a semantic error
    assert main(["reg", prob, "--module", "Z"]) == 1
    capsys.readouterr()
    # argparse usage problems are also exit 1
    assert main(["reg", prob]) == 1
    assert main(["frobnicate", prob]) == 1
    capsys.readouterr()
    # integers are ASCII digits, as in a problem file, and --rho/--const
    # may carry a leading '-'; int() alone also reads each of these
    grid = ["--module", "M", "--coeff", "N", "--ideal", "I", "--imax", "0", "--nmax", "0"]
    blob = {"spec": {"d": 1, "b": 1, "c": 1, "h": [3], "g": [2]}, "data": {"0": [[0, 0, 5]]}}
    tri = _write(tmp_path, "tri.json", json.dumps(blob))
    for text in ("1_0", " 2 ", "\u0663", "+1", "-0", ""):
        assert main(["trigraded-bound", tri, "--imax", text]) == 1, text
        assert main(["sweep", prob, *grid, "--nmax", text]) == 1, text
        assert main(["resolve", prob, "--module", "M", "--cap", text]) == 1, text
    for text in ("1_0", " 2 ", "\u0663", "+1", "-1_0", "-\u0663", "- 1", "-"):
        assert main(["verify", prob, *grid, "--rho", text]) == 1, text
        assert main(["verify", prob, *grid, "--rho", "3", "--const", text]) == 1, text
    err = capsys.readouterr().err
    assert "cmreg: argument --imax: invalid nonnegative value: '1_0'" in err
    assert "cmreg: argument --rho: invalid int value: '+1'" in err
    out = str(tmp_path / "v.json")
    assert main(["verify", prob, *grid, "--rho", "-0", "--const", "9", "--json", out]) == 0
    report = json.loads(open(out).read())["report"]
    assert report["rho_upper"] == 0
    assert main(["verify", prob, *grid, "--rho", "0", "--const", "-99", "--json", out]) == 3
    capsys.readouterr()


def test_trigraded_bound_command(tmp_path, capsys):
    blob = {
        "spec": {"d": 1, "b": 1, "c": 1, "h": [3], "g": [2]},
        "data": {"0": [[0, 0, 5]], "1": [[0, 0, 6]]},
        "imax": 3,
        "nmax": 3,
    }
    data = _write(tmp_path, "tri.json", json.dumps(blob))
    assert main(["trigraded-bound", data]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks_passed"] is True
    assert payload["e"] == 5
    assert payload["c"] == {"0": 5, "1": 6}
    assert payload["bound"][0][0] == 5
    assert payload["bound"][2][1] == 2 * 2 + 3 * 1 + 5
    # malformed data is a semantic error
    bad = _write(tmp_path, "bad.json", json.dumps({"spec": {}}))
    assert main(["trigraded-bound", bad]) == 1
    capsys.readouterr()


def test_trigraded_bound_checks_the_line_against_the_twists(tmp_path, capsys, monkeypatch):
    # a line whose i-slope is the smaller g-weight: the enumerated twists
    # a + 3*v rise above 2*i + 3*n + c_0 from i = 1 on
    blob = {"spec": {"d": 1, "b": 1, "c": 2, "h": [3], "g": [2, 3]}, "data": {"0": [[0, 0, 5]]}}
    data = _write(tmp_path, "tri.json", json.dumps(blob))
    monkeypatch.setattr(TrigradedRingSpec, "g1", property(lambda self: self.g[-1]))
    assert main(["trigraded-bound", data]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["checks_passed"] is False
    assert captured.err.splitlines() == [
        "cmreg: bound violation: max twist exceeded the bound line on the grid"
    ]


def test_unwritable_output_exit_1(tmp_path):
    missing = tmp_path / "missing"
    prob = _write(tmp_path, "red.prob", REDUCED)
    blob = {"spec": {"d": 1, "b": 1, "c": 1, "h": [3], "g": [2]}, "data": {"0": [[0, 0, 5]]}}
    data = _write(tmp_path, "tri.json", json.dumps(blob))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (
        ["sweep", prob, "--module", "M", "--coeff", "N", "--ideal", "I",
         "--imax", "1", "--nmax", "1", "--csv", str(missing / "out.csv")],
        ["trigraded-bound", data, "--out", str(missing / "o.json")],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cmreg.cli", *argv], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("cmreg: cannot write " + str(missing)), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
    assert not missing.exists()


def test_trigraded_non_integer_weights_exit_1(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for h in (["a"], [[2]]):
        blob = {"spec": {"d": 1, "b": 1, "c": 1, "h": h, "g": [3]}, "data": {"0": [[0, 0, 1]]}}
        data = _write(tmp_path, "tri.json", json.dumps(blob))
        proc = subprocess.run(
            [sys.executable, "-m", "cmreg.cli", "trigraded-bound", data], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("cmreg: bad trigraded data: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""


NO_QUOTIENT = """\
ring d=2 char=32003
module M: targets [0]; relations [[x1]]
module N: targets [0]; relations [[x2]]
ideal I: x1
"""


def test_bad_input_exits_1_with_one_line(tmp_path, capsys):
    prob = _write(tmp_path, "red.prob", REDUCED)
    hyp = _write(tmp_path, "hyp.prob", HYPERSURFACE)
    noq = _write(tmp_path, "noq.prob", NO_QUOTIENT)
    capped = _write(tmp_path, "capped.prob", HYPERSURFACE + "params: hom_cap=1\n")
    negative = _write(tmp_path, "neg.prob", HYPERSURFACE + "params: imax=-1\n")
    repeated = _write(tmp_path, "rep.prob", HYPERSURFACE + "params: imax=3 imax=5\n")
    deep = _write(tmp_path, "deep.prob", "ring d=1 char=32003\nideal I: "
                  + "(" * 1000 + "x1" + ")" * 1000 + "\n")
    # denominators divisible by the characteristic, and an integer longer
    # than int() converts
    zero32003 = _write(tmp_path, "zero32003.prob", HYPERSURFACE + "ideal J: 1/32003*x1\n")
    zero7 = _write(tmp_path, "zero7.prob", REDUCED.replace("char=32003", "char=7")
                   + "ideal J: 1/14*x1\n")
    long_int = _write(tmp_path, "long.prob", "ring d=1 char=" + "1" * 5000 + "\n")
    # more variables than an index can hold
    huge_d = _write(tmp_path, "huge_d.prob", "ring d=299999999999999999999 char=32003\n"
                    "module M: targets [0]; relations [[x1]]\n")
    # UTF-16 with its byte-order mark, which is not UTF-8
    utf16 = tmp_path / "utf16.prob"
    utf16.write_bytes(b"\xff\xfe" + HYPERSURFACE.encode("utf-16-le"))
    good = {"spec": {"d": 1, "b": 1, "c": 1, "h": [3], "g": [2]}, "data": {"0": [[0, 0, 5]]}}
    tri = _write(tmp_path, "tri.json", json.dumps({**good, "imax": -1}))
    tri_utf16 = tmp_path / "tri_utf16.json"
    tri_utf16.write_bytes(b"\xff\xfe" + json.dumps(good).encode("utf-16-le"))
    tri_deep = _write(tmp_path, "tri_deep.json",
                      '{"spec": ' + "[" * 200000 + "]" * 200000 + "}")
    tri_bad = [
        _write(tmp_path, f"tri{k}.json", text)
        for k, text in enumerate((
            json.dumps({**good, "imax": 2.5}),
            json.dumps(good)[:-1] + ', "imax": 1e400}',  # parses as inf
            json.dumps({**good, "nmax": None}),
            json.dumps({**good, "imx": 3}),
            json.dumps({**good, "spec": {**good["spec"], "e": 0}}),
            json.dumps({**good, "data": {}}),
            # two keys naming level 1: neither may be dropped silently
            json.dumps({**good, "data": {**good["data"], "1": [[0, 0, 1]], "01": [[0, 0, 9]]}}),
            json.dumps({**good, "spec": {**good["spec"], "d": -1}}),
            # a repeated key at any depth, which json.load would let the
            # last copy win
            '{"spec": {"d": 1, "b": 1, "c": 1, "h": [3], "g": [2]},'
            ' "data": {"0": [[0, 0, 5]], "0": [[0, 0, 1]]}}',
            '{"spec": {"d": 1, "b": 1, "c": 1, "h": [3], "g": [2], "g": [9]},'
            ' "data": {"0": [[0, 0, 5]]}}',
            json.dumps({**good, "imax": 1})[:-1] + ', "imax": 2}',
            # level keys that int() reads but that are not ASCII digits
            *(
                json.dumps({**good, "spec": {**good["spec"], "d": 10},
                            "data": {**good["data"], key: [[0, 0, 1]]}})
                for key in ("\u0661", "1_0", " +2 ")
            ),
        ))
    ]
    grid = ["--module", "M", "--coeff", "N", "--ideal", "I"]
    # one row of each subcommand, and the inputs nested deepest or sized largest
    shell = (
        ["ext", prob, "--module", "M", "--coeff", "N", "--index", "-1"],
        ["tor", prob, "--module", "M", "--coeff", "N", "--index", "-1"],
        ["sweep", noq, *grid],
        ["verify", noq, *grid],
        ["rho", prob, "--module", "N", "--ideal", "I", "--nmax", "-1"],
        ["resolve", prob, "--module", "M", "--cap", "-1"],
        ["reg", deep, "--module", "M"],
        ["reg", huge_d, "--module", "M"],
        ["trigraded-bound", tri_deep],
    )
    for argv in (
        *shell,
        ["sweep", prob, *grid, "--imax", "-1"],
        ["verify", prob, *grid, "--nmax", "-1"],
        ["verify", hyp, "--module", "M", "--coeff", "M", "--ideal", "I", "--hom-cap", "1"],
        ["verify", capped, "--module", "M", "--coeff", "M", "--ideal", "I"],
        ["sweep", negative, "--module", "M", "--coeff", "M", "--ideal", "I"],
        ["sweep", repeated, "--module", "M", "--coeff", "M", "--ideal", "I"],
        ["trigraded-bound", tri],
        *(["trigraded-bound", bad] for bad in tri_bad),
        ["reg", zero32003, "--module", "M"],
        ["rho", zero7, "--module", "N", "--ideal", "I"],
        ["reg", long_int, "--module", "M"],
        ["reg", str(utf16), "--module", "M"],
        ["trigraded-bound", str(tri_utf16)],
        ["trigraded-bound", tri, "--nmax", "-1"],
        ["reg", hyp, "--module", "M", "--degree-cap", "-1"],
        ["verify", hyp, "--module", "M", "--coeff", "M", "--ideal", "I", "--degree-cap", "-3"],
    ):
        # in process: an exception that escapes main fails the test here
        rc = main(argv)
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert rc == 1, (argv, err)
        assert [l for l in lines if l.startswith("cmreg:")] == lines[-1:], (argv, lines)
        assert out == ""
    # as the shell sees them: exit 1 and no traceback from a fresh interpreter
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in shell:
        proc = subprocess.run(
            [sys.executable, "-m", "cmreg.cli", *argv], env=env,
            capture_output=True, text=True, timeout=120,
        )
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert [l for l in lines if l.startswith("cmreg:")] == lines[-1:], (argv, lines)
        assert proc.stdout == ""


def test_removed_output_flags_are_usage_errors(tmp_path, capsys):
    # sweep writes --csv/--json and verify --json; neither ever read --out,
    # verify never read --csv, the rho bound is verify's, not sweep's, and
    # f = min deg z_j is fixed by the ring
    prob = _write(tmp_path, "red.prob", REDUCED)
    grid = ["--module", "M", "--coeff", "N", "--ideal", "I", "--imax", "0", "--nmax", "0"]
    for argv in (
        ["sweep", prob, *grid, "--out", str(tmp_path / "o.csv")],
        ["verify", prob, *grid, "--out", str(tmp_path / "o.json")],
        ["verify", prob, *grid, "--csv", str(tmp_path / "o.csv")],
        ["sweep", prob, *grid, "--rho", "5"],
        ["verify", prob, *grid, "--f", "2"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: cmreg")
        assert lines[-1].startswith("cmreg: unrecognized arguments: --")
    assert sorted(os.listdir(tmp_path)) == ["red.prob"]


def test_composite_characteristic_exits_1_at_once(tmp_path, capsys):
    # 1000000007 * 1000000009: trial division would run for minutes
    prob = _write(tmp_path, "huge.prob", "ring d=1 char=1000000016000000063\n")
    start = time.perf_counter()
    assert main(["reg", prob, "--module", "M"]) == 1
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == "cmreg: line 1: 1000000016000000063 is not prime\n"


def test_flags_beat_the_files_settings(tmp_path, capsys):
    # one rule everywhere: the flag, else the file, else the default
    prob = _write(tmp_path, "red.prob", REDUCED)
    grid = ["--module", "M", "--coeff", "N", "--ideal", "I"]
    assert main(["sweep", prob, *grid, "--imax", "1", "--nmax", "2"]) == 0
    # header + 2 parities * 2 i * 3 n, not the params' 4 i * 5 n
    assert len(capsys.readouterr().out.splitlines()) == 13
    out = str(tmp_path / "v.json")
    assert main(["verify", prob, *grid, "--imax", "0", "--nmax", "1", "--json", out]) == 0
    assert len(json.loads(open(out).read())["cells"]) == 4
    capped = _write(tmp_path, "capped.prob", REDUCED.replace("candidates=I", "degree_cap=1"))
    small = grid + ["--imax", "1", "--nmax", "1"]
    assert main(["sweep", capped, *small]) == 2
    assert main(["sweep", capped, *small, "--degree-cap", "40"]) == 0
    assert main(["sweep", prob, *small, "--degree-cap", "1"]) == 2
    capsys.readouterr()
    blob = {
        "spec": {"d": 1, "b": 1, "c": 1, "h": [3], "g": [2]},
        "data": {"0": [[0, 0, 5]]}, "imax": 3, "nmax": 3,
    }
    data = _write(tmp_path, "tri.json", json.dumps(blob))
    assert main(["trigraded-bound", data, "--imax", "1", "--nmax", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["imax"], payload["nmax"]) == (1, 1)
    assert payload["bound"] == [[5, 8], [7, 10]]
    assert main(["trigraded-bound", data]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["imax"], payload["nmax"]) == (3, 3)


def _reference_main(argv):
    """main with the whole parser built on every call, as before subcommand
    dispatch: the reference the dispatch must match byte for byte."""
    try:
        args = build_parser().parse_args(argv)
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


def _happy_argv(name):
    """The argv on which test_cli_options_read runs subcommand name."""
    return [name, "t.json" if name == "trigraded-bound" else "p.prob", *ARGV[name]]


#: argv on which main must answer exactly as _reference_main
DISPATCH_ARGV = [
    *(_happy_argv(name) for name in ARGV),
    # no subcommand: the top level answers
    [], ["-h"], ["--version"], ["--vers"], ["--"], ["frobnicate", "p.prob"],
    # arguments the subcommand leaves over
    ["verify", "p.prob", *GRID, "--f", "2"],
    ["trigraded-bound", "t.json", "extra"],
    ["reg", "p.prob", "--module", "M", "--version"],
    # the subcommand's own errors and help
    ["reg", "p.prob"],
    ["ext", "p.prob", "--module", "M", "--index", "1"],
    ["sweep", "p.prob", *GRID[:-4], "--imax", "x"],
    ["resolve", "p.prob", "--module", "M", "--over", "B"],
    ["-h", "reg"], ["reg", "-h"], ["verify", "p.prob", "--help"],
    # abbreviations, the last one ambiguous (--coeff or --csv)
    ["sweep", "p.prob", "--mod", "M", "--co", "N", "--id", "I", "--im", "0", "--nm", "0"],
    ["verify", "p.prob", *GRID, "--r", "-1", "--cons", "9"],
    ["sweep", "p.prob", "--module", "M", "--c", "N", "--ideal", "I"],
]


def _outcome(run, argv, capsys, seen):
    """(exit code, stdout, stderr, the namespaces the command saw)."""
    seen.clear()
    try:
        code = run(argv)
    except SystemExit as exc:  # -h and --version
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, list(seen)


def test_dispatch_answers_as_the_whole_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.prob").write_text(PROBLEM)
    (tmp_path / "t.json").write_text(json.dumps(TRIGRADED))
    seen = []
    # each parser reads its fn default from the module when it is built
    for name in [n for n in dir(cli) if n.startswith("cmd_")]:
        def record(args, command=getattr(cli, name)):
            seen.append(dict(vars(args)))
            return command(args)
        monkeypatch.setattr(cli, name, record)
    codes = set()
    for argv in DISPATCH_ARGV:
        got = _outcome(main, argv, capsys, seen)
        assert got == _outcome(_reference_main, argv, capsys, seen), argv
        codes.add(got[0])
    assert codes == {0, 1}
    assert sorted(os.listdir(tmp_path)) == ["p.prob", "t.json"]


def test_main_builds_only_the_named_subcommands_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.prob").write_text(PROBLEM)
    (tmp_path / "t.json").write_text(json.dumps(TRIGRADED))
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    for name in ARGV:
        built.clear()
        assert main(_happy_argv(name)) == 0
        assert built == [f"cmreg {name}"]
    # the top level answers with the whole parser: itself and eight more
    built.clear()
    assert main(["frobnicate"]) == 1
    assert len(built) == 9
    capsys.readouterr()
