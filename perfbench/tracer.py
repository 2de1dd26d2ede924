"""Outside-in layer tracer for cmreg.

The tracer wraps public functions of the cmreg layers from outside the
package: it replaces each function in every cmreg module that bound it by
name, so `from .groebner import kernel` in `resolution` and `ext_tor` is
traced as well as `cmreg.groebner.kernel`.  Each call records a span (name,
start, end, parent) in memory; self time is a span's duration minus the
durations of its direct children.  Three wrappers also record deterministic
work counts.

`fields`, `rings` and `freemod` are not wrapped: they are called millions of
times, and their cost shows as the self time of the functions that call them.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: module -> public functions wrapped; metric names are module.function.stat
LAYERS = {
    "problemfile": ("parse_problem",),
    "groebner": (
        "buchberger",
        "kernel",
        "preimage",
        "minimal_generators",
        "normal_form",
    ),
    "linalg": ("row_reduce", "rank"),
    "resolution": ("resolve_over_Q", "resolve_over_A", "minimal_presentation"),
    "regularity": ("regularity", "betti_oracle"),
    "ext_tor": ("ext", "to_presentation"),
    "rees": ("power_module", "quotient_module", "rho_upper"),
    "sweeps": ("sweep", "verify_bounds"),
    "trigraded": ("component_twists", "max_twist_bound_check"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

#: work counts: metric name -> what it counts
WORK_COUNTS = {
    "groebner.buchberger.basis_elems": "elements in the returned bases",
    "linalg.row_reduce.cells": "rows x columns of the input matrices",
    "trigraded.component_twists.twists": "twists materialised",
}


class Tracer:
    """Install with `with Tracer() as t:`; spans and counts stay in memory
    until `summary()` or `spans` are read."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in WORK_COUNTS}
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # -- installation ----------------------------------------------------------

    def __enter__(self):
        import cmreg.cli  # noqa: F401  (loads every layer module)

        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cmreg" or name.startswith("cmreg."))
        ]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"cmreg.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if name == "linalg.row_reduce":  # every caller passes a list of rows
                rows = args[0]
                counts["linalg.row_reduce.cells"] += len(rows) * len(rows[0] if rows else ())
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if name == "groebner.buchberger":
                counts["groebner.buchberger.basis_elems"] += len(result)
            elif name == "trigraded.component_twists":
                counts["trigraded.component_twists.twists"] += len(result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- aggregation -----------------------------------------------------------

    def summary(self, since=float("-inf")):
        """Per-layer metrics over the spans that start at or after `since`.

        calls counts every span; total_s sums the spans with no ancestor of
        the same name, so recursion is not counted twice; self_s sums span
        duration minus direct children.  Also returns the summed duration of
        root spans, the part of the wall time that some layer accounts for.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        root_s = 0.0
        for idx, (name, start, end, parent) in enumerate(spans):
            if start < since:
                continue
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += end - start - child_time[idx]
            if parent < 0:
                root_s += end - start
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                s["total_s"] += end - start
        metrics = {}
        for n in SPAN_NAMES:
            for stat, value in stats[n].items():
                metrics[f"{n}.{stat}"] = value
        metrics.update(self.counts)
        return metrics, root_s
