"""cmreg benchmark: time to a certified answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (worker.py) with `src/` on the path, so set-up includes importing
cmreg.  Passes repeat until S seconds have gone, and each metric is the
median over the passes.  With --trace 0 the last line of standard output is
a JSON object with the end-to-end metrics; with --trace 1 untraced and traced
passes alternate, and it carries the per-layer metrics.  Every answer is
checked; the exit code is 1 when one is wrong and 2 when the program is not
there to run.  Details of each run go to .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

#: the workloads of BENCHMARK.json, and betti_nonminimal_q3, which reports a
#: known defect (README.md, "Known defects") and so is not listed there yet
WORKLOAD_NAMES = (
    "verify_ci3",
    "verify_paper_examples",
    "betti_oracle_q3",
    "trigraded_grid",
    "betti_nonminimal_q3",
)

MIN_PASSES = 3  # per kind of pass, untraced and traced
DEADLINE_S = 170  # the whole command must end within 180 s
PERCENTILES = (50, 90, 95, 99, 99.9)


def percentile_report(values):
    """'p50 ...' plus the highest listed percentile with at least ten
    samples beyond it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    best = max(p for p in PERCENTILES if p == 50 or n * (1 - p / 100) >= 10)
    parts = [f"p50 {statistics.median(xs):.6g}"]
    if best > 50:
        parts.append(f"p{best:g} {xs[math.ceil(best / 100 * n) - 1]:.6g}")
    return ", ".join(parts) + f" (n={n})"


def environment():
    loadavg = None
    if hasattr(os, "getloadavg"):
        loadavg = [round(x, 2) for x in os.getloadavg()]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cmreg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def worker_env():
    drop = ("CMREG_THREADS", "PYTHONDONTWRITEBYTECODE")  # byte code is cached
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


def run_pass(args, traced, k, run_dir, deadline, spans_out):
    workdir = os.path.join(run_dir, f"pass-{k}")
    os.makedirs(workdir)
    result_path = os.path.join(run_dir, f"pass-{k}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), args.workload,
        str(args.seed), "1" if traced else "0", workdir, result_path,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        error = None if proc.returncode == 0 else (
            f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    except subprocess.TimeoutExpired:
        error = "worker timed out"
    shutil.rmtree(workdir)
    if error is None:
        with open(result_path) as fh:
            result = json.load(fh)
        if traced:  # the last traced pass's spans are kept
            os.replace(result_path + ".spans.json", spans_out)
    else:
        result = {"checked": 1, "wrong": 1, "messages": [error]}
    result["traced"] = traced
    return result


def end_to_end(passes):
    ok = [p for p in passes if "wall_s" in p]
    items = [s * 1000.0 for p in ok for s in p["item_s"]]
    samples = {
        "wall_s": ("s", [p["wall_s"] for p in ok]),
        "cpu_s": ("s", [p["cpu_s"] for p in ok]),
        "item_ms_p50": ("ms", items),
        "setup_s": ("s", [p["setup_s"] for p in ok]),
        "peak_rss_mb": ("MB", [p["peak_rss_mb"] for p in ok]),
    }
    return {k: (unit, xs) for k, (unit, xs) in samples.items() if xs}


def per_layer(untraced, traced):
    layers = [p["layers"] for p in traced if "layers" in p]
    metrics = {}
    if not layers:
        return metrics, []
    unstable = []
    for name in layers[0]:
        values = [m[name] for m in layers]
        unit = "s" if name.endswith("_s") else "count"
        if unit == "count" and len(set(values)) > 1:
            unstable.append(name)
        metrics[name] = (unit, statistics.median(values))
    walls = [p["wall_s"] for p in untraced if "wall_s" in p]
    twalls = [p["wall_s"] for p in traced if "wall_s" in p]
    if walls and twalls:
        ratio = statistics.median(twalls) / statistics.median(walls)
        metrics["trace.overhead_ratio"] = ("ratio", ratio)
    return metrics, unstable


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cmreg", "__init__.py")):
        print(f"perfbench: no cmreg sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, "runs", f"{tag}-{os.getpid()}")
    results = os.path.join(OUT, "results")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(results, exist_ok=True)
    env = environment()

    passes = []
    kinds = (False, True) if args.trace else (False,)
    while True:
        done = time.monotonic() - started
        if len(passes) >= MIN_PASSES * len(kinds) and done >= args.seconds:
            break
        if time.monotonic() > deadline - 30:
            break
        traced = kinds[len(passes) % len(kinds)]
        spans_out = os.path.join(results, tag + ".spans.json")
        passes.append(run_pass(args, traced, len(passes), run_dir, deadline, spans_out))

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["checked"] for p in passes)
    failed = sum(p["wrong"] for p in passes)
    messages = [m for p in passes for m in p["messages"]]
    digests = {p["answers_sha256"] for p in passes if "answers_sha256" in p}
    if len(digests) > 1:
        failed += 1
        attempted += 1
        messages.append("answers differ between passes")

    e2e = end_to_end(untraced)
    layers, unstable = per_layer(untraced, traced)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in layers.items()}
    else:
        metrics = {
            k: {"value": statistics.median(xs), "unit": u} for k, (u, xs) in e2e.items()
        }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"{time.monotonic() - started:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for k, (u, xs) in e2e.items():
        print(f"  {k:<14} {u:<3} {percentile_report(xs)}")
    print(f"  {'fail_ratio':<14} {'1':<3} {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} answers)")
    if args.trace:
        for k, (u, v) in layers.items():
            print(f"  {k:<48} {u:<5} {v:.6g}")
    if unstable:
        print("work counts differ between traced passes: " + ", ".join(unstable))
    for m in messages[:20]:
        print("FAILED " + m)

    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump({"environment": env, "passes": passes, "metrics": metrics}, fh, indent=1)
    shutil.rmtree(run_dir)

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
