"""Self-tests of the benchmark: its checks catch single wrong answers, the
tracer's counts repeat, tracing does not change answers, and the per-layer
times account for the traced wall time.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import generators
import run
import workloads
from tracer import LAYERS, Tracer


def _answer_json(answer):
    rc, text = answer
    assert rc == 0
    return json.loads(text)


def _with_json(payload):
    return 0, json.dumps(payload)


def test_ci3_check_catches_one_wrong_cell_or_constant():
    ref = workloads._load_reference()
    answer = _with_json(ref)
    checked, wrong, _ = workloads.check_ci3(answer, ref)
    assert (checked, wrong) == (len(ref["cells"]) + 1, 0)

    bad = copy.deepcopy(ref)
    bad["cells"][5]["reg"] = 7
    assert workloads.check_ci3(_with_json(bad), ref)[1] == 1
    bad = copy.deepcopy(ref)
    bad["cells"][5]["reg"] = "cap"
    assert workloads.check_ci3(_with_json(bad), ref)[1] == 1
    bad = copy.deepcopy(ref)
    bad["report"]["e_hat"]["power/odd"] = 1
    assert workloads.check_ci3(_with_json(bad), ref)[1] == 1
    assert workloads.check_ci3((2, None), ref)[1] == checked


def test_paper_example_check_catches_one_wrong_cell_or_bound(tmp_path):
    item = workloads._verify_items(["hypersurface"], str(tmp_path))[0]
    payload = _answer_json(workloads._run_verify(item))
    name, grid = item["name"], item["grid"]
    checked, wrong, msgs = workloads.check_paper_example(name, grid, _with_json(payload))
    assert wrong == 0, msgs
    assert checked == 9 * 7 * 2 + 1

    bad = copy.deepcopy(payload)
    bad["cells"][-1]["reg"] -= 1
    assert workloads.check_paper_example(name, grid, _with_json(bad))[1] == 1
    bad = copy.deepcopy(payload)
    del bad["cells"][0]
    assert workloads.check_paper_example(name, grid, _with_json(bad))[1] == 1
    bad = copy.deepcopy(payload)
    bad["report"]["e_hat"]["power/even"] = 1
    assert workloads.check_paper_example(name, grid, _with_json(bad))[1] == 1


def test_e_hat_from_closed_forms():
    grid = (6, 8, ("power", "quotient"))
    expected = {
        key: workloads._reduced_hypersurface(*key) for key in workloads._grid_keys(grid)
    }
    assert workloads.e_hat(expected, 1, 2) == {
        "power/even": "-inf", "power/odd": 0, "quotient/even": 0, "quotient/odd": -1,
    }


def test_betti_check_catches_one_wrong_entry():
    M = generators.betti_population(1, 2)[1]
    answer = workloads._run_betti(M, nonminimal=True)
    assert workloads.check_betti(answer)[:2] == (1, 0)
    for key in ("resolve_over_Q", "minimize"):
        bad = copy.deepcopy(answer)
        (i, j), b = bad[key][0]
        bad[key][0] = ((i, j), b + 1)
        assert workloads.check_betti(bad)[:2] == (1, 1)


def test_betti_seed_keeps_tables():
    # the seeded symmetry changes coefficients, never the Betti table
    a = [workloads._run_betti(M, False) for M in generators.betti_population(1, 3)]
    b = [workloads._run_betti(M, False) for M in generators.betti_population(2, 3)]
    assert a == b
    assert generators.betti_population(1, 3)[2].relations.matrix != (
        generators.betti_population(2, 3)[2].relations.matrix
    )


def test_trigraded_check_catches_one_wrong_bound_entry(tmp_path):
    item = workloads._trigraded_items(3, str(tmp_path))[0]
    payload = _answer_json(workloads._cli(item["argv"], item["out"]))
    blob = item["blob"]
    assert workloads.check_trigraded(blob, _with_json(payload))[:2] == (1, 0)

    bad = copy.deepcopy(payload)
    bad["bound"][4][7] += 1
    assert workloads.check_trigraded(blob, _with_json(bad))[:2] == (1, 1)
    bad = copy.deepcopy(payload)
    bad["checks_passed"] = False
    assert workloads.check_trigraded(blob, _with_json(bad))[:2] == (1, 1)
    bad = copy.deepcopy(payload)
    bad["e"] += 1
    assert workloads.check_trigraded(blob, _with_json(bad))[:2] == (1, 1)


def test_tracer_wraps_every_binding_and_restores_it():
    import cmreg.ext_tor
    import cmreg.groebner
    import cmreg.resolution

    original = cmreg.groebner.kernel
    assert cmreg.resolution.kernel is original and cmreg.ext_tor.kernel is original
    with Tracer():
        for mod in (cmreg.groebner, cmreg.resolution, cmreg.ext_tor):
            assert mod.kernel is not original
            assert mod.kernel.__wrapped__ is original
    for mod in (cmreg.groebner, cmreg.resolution, cmreg.ext_tor):
        assert mod.kernel is original
    for layer, fns in LAYERS.items():
        mod = sys.modules[f"cmreg.{layer}"]
        for fn in fns:
            assert not hasattr(getattr(mod, fn), "__wrapped__")


def test_self_time_excludes_children():
    t = Tracer()
    t.spans[:] = [
        ["groebner.kernel", 0.0, 10.0, -1],
        ["groebner.buchberger", 1.0, 4.0, 0],
        ["groebner.buchberger", 5.0, 6.0, 0],
        ["groebner.kernel", 6.5, 7.0, 0],
    ]
    metrics, root_s = t.summary()
    assert metrics["groebner.kernel.calls"] == 2
    assert metrics["groebner.kernel.total_s"] == 10.0  # the nested call is inside
    assert metrics["groebner.kernel.self_s"] == 10.0 - 4.5 + 0.5
    assert metrics["groebner.buchberger.self_s"] == 4.0
    assert root_s == 10.0


def _worker(tmp_path, workload, traced, k):
    workdir = tmp_path / f"pass-{k}"
    workdir.mkdir()
    result = tmp_path / f"pass-{k}.json"
    subprocess.run(
        [sys.executable, os.path.join(run.HERE, "worker.py"), workload, "5",
         "1" if traced else "0", str(workdir), str(result)],
        env=run.worker_env(), check=True, timeout=170,
    )
    return json.loads(result.read_text())


@pytest.fixture(scope="module")
def ci3_passes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ci3")
    return [_worker(tmp, "verify_ci3", traced, k) for k, traced in enumerate((False, True, True))]


def test_work_counts_repeat_exactly(ci3_passes):
    _, first, second = ci3_passes
    counts = {
        k: v for k, v in first["layers"].items() if not k.endswith("_s")
    }
    assert counts == {k: second["layers"][k] for k in counts}
    assert counts["groebner.buchberger.calls"] > 0
    assert counts["linalg.row_reduce.cells"] > 0


def test_traced_and_untraced_answers_match(ci3_passes):
    assert len({p["answers_sha256"] for p in ci3_passes}) == 1
    assert all(p["wrong"] == 0 for p in ci3_passes)


def test_layer_times_add_up_to_traced_wall(ci3_passes):
    for p in ci3_passes[1:]:
        residue = p["wall_s"] - p["timed_root_s"]
        assert 0 <= residue < 0.1 * p["wall_s"]
        assert p["timed_self_s"] + residue == pytest.approx(p["wall_s"], rel=0.03)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_ci3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
