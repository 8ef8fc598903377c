"""In-memory spans around the public functions of toroboris, for traced runs.

Each wrapped function is replaced in every toroboris module whose globals
hold it, which is where its callers look it up, and restored on exit.  A
span records its label, its parent span and its start and end time; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

from workloads import rk4_steps

# (module, function); the span label is "module.function" and the module
# names the layer.
WRAPPED = (
    ("cli", "cli_main"),
    ("cli", "parse_config"),
    ("cli", "trajectory_csv"),
    ("cli", "error_csv"),
    ("harness", "run_trajectory"),
    ("harness", "run_reference"),
    ("harness", "run_drift"),
    ("harness", "observables"),
    ("harness", "error_vs_reference"),
    ("harness", "error_vs_drift"),
    ("boris", "integrate"),
    ("boris", "nondegeneracy_sigma"),
    ("boris", "magnetic_moment"),
    ("geometry", "eval_field"),
    ("geometry", "frame"),
    ("geometry", "potential"),
    ("drift", "drift_integrate"),
    ("drift", "drift_rhs"),
)
LAYERS = tuple(dict.fromkeys(module for module, _ in WRAPPED))


def _count_integrate(counts, result, args):
    counts["boris.integrate.steps"] += result.steps_completed
    counts["boris.integrate.samples"] += len(result)


def _count_observables(counts, result, args):
    counts["harness.observables.samples"] += len(result)


def _count_trajectory_rows(counts, result, args):
    counts["cli.trajectory_csv.rows"] += len(args[0])


def _count_error_rows(counts, result, args):
    counts["cli.error_csv.rows"] += len(args[0].t)


def _keep_drift_grid(counts, result, args):
    # RK4 steps are replayed from the grid after the pass, outside any span.
    counts["drift.grids"].append((result.t, result.epsilon, args[2].dtau))


COUNTERS = {
    "boris.integrate": _count_integrate,
    "harness.observables": _count_observables,
    "cli.trajectory_csv": _count_trajectory_rows,
    "cli.error_csv": _count_error_rows,
    "drift.drift_integrate": _keep_drift_grid,
}


class Tracer:
    """Span recorder; use as a context manager around traced invocations."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules
        self.labels = [f"{module}.{attr}" for module, attr in WRAPPED]
        self._patched = []
        self.name, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.counts = defaultdict(int)
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers keep the same buffers."""
        for buf in (self.name, self.parent, self.start, self.end):
            del buf[:]
        self.counts.clear()
        self.counts["drift.grids"] = []
        del self._stack[1:]

    def _wrap(self, label_id: int, label: str, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counts, counter = self._stack, self.counts, COUNTERS.get(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(label_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counter(counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for label_id, (mod_name, attr) in enumerate(WRAPPED):
            original = getattr(self.modules[mod_name], attr)
            wrapper = self._wrap(label_id, self.labels[label_id], original)
            for mod in self.modules.values():
                if mod.__dict__.get(attr) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def totals(self) -> dict:
        """Per-label calls, inclusive and self seconds, and the pass counts."""
        n = len(self.start)
        label = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=n)
        self_time = dur - child_time
        k = len(self.labels)
        out = {
            "calls": np.bincount(label, minlength=k),
            "incl": np.bincount(label, weights=dur, minlength=k),
            "self": np.bincount(label, weights=self_time, minlength=k),
        }
        counts = {key: v for key, v in self.counts.items() if key != "drift.grids"}
        counts["drift.drift_integrate.rk4_steps"] = sum(
            rk4_steps(t, eps, dtau) for t, eps, dtau in self.counts["drift.grids"]
        )
        out["counts"] = counts
        return out

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as CSV: id, parent, label, start, end."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,label,start_s,end_s\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.parent[i]},{self.labels[self.name[i]]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )
