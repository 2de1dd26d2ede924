"""One pass of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR RESULT

Set-up (importing cmreg and building the inputs) is timed on its own; the
timed region is the loop over the workload's items; answers are checked
after it.  The result is written as JSON to RESULT, and with TRACE=1 the
spans go to RESULT with the suffix .spans.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter, process_time

START = perf_counter()


def main(argv):
    name, seed, trace, workdir, result_path = argv
    seed, trace = int(seed), trace == "1"
    if "CMREG_THREADS" in os.environ:
        raise SystemExit("CMREG_THREADS must be unset: sweep would start threads")

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().__enter__()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    items = workload.setup(seed, workdir)
    setup_s = perf_counter() - START

    answers, errors, item_s = [], {}, []
    cpu0, wall0 = process_time(), perf_counter()
    for k, item in enumerate(items):
        t = perf_counter()
        try:
            answers.append(workload.run(item))
        except Exception as exc:  # counted as a failed item; the pass goes on
            answers.append(None)
            errors[k] = f"{type(exc).__name__}: {exc}"
        item_s.append(perf_counter() - t)
    wall_s = perf_counter() - wall0
    cpu_s = process_time() - cpu0

    checked = wrong = 0
    messages = []
    for k, (item, answer) in enumerate(zip(items, answers)):
        if k in errors:
            checked, wrong = checked + 1, wrong + 1
            messages.append(f"item {k}: {errors[k]}")
            continue
        n, w, msgs = workload.check(item, answer)
        checked, wrong = checked + n, wrong + w
        messages += msgs

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "item_s": item_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checked": checked,
        "wrong": wrong,
        "messages": messages[:20],
        "answers_sha256": hashlib.sha256(
            json.dumps(answers, sort_keys=True, default=str).encode()
        ).hexdigest(),
    }
    if tracer is not None:
        tracer.__exit__(None, None, None)
        result["layers"], _ = tracer.summary()
        timed, root_s = tracer.summary(since=wall0)
        result["timed_root_s"] = root_s
        result["timed_self_s"] = sum(v for k, v in timed.items() if k.endswith(".self_s"))
        with open(result_path + ".spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
