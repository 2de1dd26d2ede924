from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from cmreg.cli import atomic_write, main

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
    assert "rho upper bound: 1" in out
    assert "stable from n=" in out


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
