#!/usr/bin/env python3
"""Benchmark of the toroboris CLI on one seeded workload.

    python3 perfbench/run.py --workload fine-reference --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory; nothing needs to be installed or built.  A run is a
closed loop of one client in one process and one thread: each CLI
invocation (``toroboris.cli.cli_main`` on a generated config) starts after
the previous one returned, and every invocation's output is checked.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import the package and finish the workload's 2-step
invocation), ``wall_s`` (median time of one pass over the workload's fixed
invocation list, repeated for ``--seconds``) and ``peak_rss_mb``.
``--trace 1`` reports the per-layer metrics of traced passes (see
README.md).  The last line of standard output is the JSON result; the line
before it is a JSON record of the environment and the work done.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, check_compare, check_trajectory, write_invocations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")
SETUP_PROBES = 7

# A fresh interpreter: import the package from SRC, run one CLI invocation.
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from toroboris.cli import cli_main; sys.exit(cli_main(sys.argv[2:]))"
)


def load_package() -> dict:
    """Import toroboris from the checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "toroboris", "cli.py")):
        sys.exit(f"perfbench: no toroboris sources under {SRC}")
    sys.path.insert(0, SRC)
    import toroboris
    from toroboris import _kernels, boris, cli, drift, geometry, harness

    if os.path.dirname(os.path.dirname(os.path.abspath(toroboris.__file__))) != SRC:
        sys.exit(f"perfbench: imported toroboris from {toroboris.__file__}, not {SRC}")
    return {
        "cli": cli,
        "harness": harness,
        "boris": boris,
        "geometry": geometry,
        "drift": drift,
        "_kernels": _kernels,
    }


class Runner:
    """Runs and checks invocations, counting attempts and failures."""

    def __init__(self, workload, invocations, cli):
        self.workload = workload
        self.invocations = invocations
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.pass_bytes = 0

    def _fail(self, inv, message: str) -> None:
        self.failed += 1
        print(f"perfbench: {' '.join(inv.argv)}: {message}", file=sys.stderr)

    def _clear(self, inv) -> None:
        for path in inv.outputs:
            if os.path.exists(path):
                os.remove(path)

    def probe(self, inv) -> float:
        """Time a fresh interpreter that imports the package and runs inv."""
        self._clear(inv)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, SRC, *inv.argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if proc.returncode != 0:
            self._fail(inv, f"exit code {proc.returncode}: {proc.stderr.strip()}")
        elif not all(os.path.isfile(p) for p in inv.outputs):
            self._fail(inv, "outputs missing")
        return elapsed

    def invoke(self, inv, canary_max_err=None):
        """Run inv in this process; returns (seconds, max_err or None)."""
        self._clear(inv)
        t0 = time.perf_counter()
        try:
            code = self.cli.cli_main(inv.argv)
        except Exception as e:  # a traceback is a failed invocation, not a crash
            code = repr(e)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        max_err = None
        if code != 0:
            self._fail(inv, f"exit code {code}")
            return elapsed, None
        if not all(os.path.isfile(p) for p in inv.outputs):
            self._fail(inv, "outputs missing")
            return elapsed, None
        self.pass_bytes += sum(os.path.getsize(p) for p in inv.outputs)
        try:
            if inv.setup:
                error = None
            elif inv.argv[0] == "compare":
                error, max_err = check_compare(self.workload, inv, canary_max_err)
            else:
                error = check_trajectory(self.workload, inv)
        except (KeyError, TypeError, ValueError) as e:
            error = f"malformed output: {e!r}"
        if error:
            self._fail(inv, error)
        return elapsed, max_err

    def run_pass(self) -> float:
        """One pass over the invocation list; returns its summed CLI time."""
        self.pass_bytes = 0
        total = 0.0
        canary = self.workload.pinned_max_err
        for inv in self.invocations:
            elapsed, max_err = self.invoke(inv, canary)
            total += elapsed
            if inv.canary and max_err is not None:
                canary = max_err
        return total


def repeat(seconds: float, run_pass) -> list:
    """Run passes while the next one is expected to end within seconds."""
    deadline = time.perf_counter() + seconds
    walls = [run_pass()]
    while time.perf_counter() + walls[-1] <= deadline:
        walls.append(run_pass())
    return walls


def _per(value: float, count: int, scale: float = 1.0) -> float:
    return value / count * scale if count else 0.0


def layer_metrics(labels, totals: list, untraced_wall: float, bytes_written: int) -> dict:
    """Per-layer metrics from the totals of each traced pass (times averaged)."""
    ix = {label: i for i, label in enumerate(labels)}
    calls = totals[0]["calls"]
    counts = totals[0]["counts"]
    incl = sum(t["incl"] for t in totals) / len(totals)
    own = sum(t["self"] for t in totals) / len(totals)
    wall = incl[ix["cli.cli_main"]]
    steps = counts.get("boris.integrate.steps", 0)
    obs_samples = counts.get("harness.observables.samples", 0)
    rk4 = counts["drift.drift_integrate.rk4_steps"]
    sigma_calls = calls[ix["boris.nondegeneracy_sigma"]]
    moment_calls = calls[ix["boris.magnetic_moment"]]

    def layer_self(layer: str) -> float:
        return sum(own[i] for label, i in ix.items() if label.startswith(layer + "."))

    values = {
        "boris.integrate.calls": (calls[ix["boris.integrate"]], "count"),
        "boris.integrate.steps": (steps, "count"),
        "boris.integrate.samples": (counts.get("boris.integrate.samples", 0), "count"),
        "boris.integrate.self_s": (own[ix["boris.integrate"]], "s"),
        "boris.integrate.ns_per_step": (_per(own[ix["boris.integrate"]], steps, 1e9), "ns/step"),
        "boris.nondegeneracy_sigma.calls": (sigma_calls, "count"),
        "boris.nondegeneracy_sigma.self_s": (own[ix["boris.nondegeneracy_sigma"]], "s"),
        "boris.nondegeneracy_sigma.us_per_call": (
            _per(incl[ix["boris.nondegeneracy_sigma"]], sigma_calls, 1e6),
            "us/call",
        ),
        "boris.magnetic_moment.calls": (moment_calls, "count"),
        "boris.magnetic_moment.us_per_call": (
            _per(incl[ix["boris.magnetic_moment"]], moment_calls, 1e6),
            "us/call",
        ),
        "geometry.frame.calls": (calls[ix["geometry.frame"]], "count"),
        "geometry.eval_field.calls": (calls[ix["geometry.eval_field"]], "count"),
        "geometry.potential.calls": (calls[ix["geometry.potential"]], "count"),
        "geometry.self_s": (layer_self("geometry"), "s"),
        "harness.observables.samples": (obs_samples, "count"),
        "harness.observables.us_per_sample": (
            _per(incl[ix["harness.observables"]], obs_samples, 1e6),
            "us/sample",
        ),
        "harness.observables.self_s": (own[ix["harness.observables"]], "s"),
        "drift.drift_integrate.calls": (calls[ix["drift.drift_integrate"]], "count"),
        "drift.drift_integrate.rk4_steps": (rk4, "count"),
        "drift.drift_integrate.self_s": (own[ix["drift.drift_integrate"]], "s"),
        "drift.drift_integrate.us_per_step": (
            _per(incl[ix["drift.drift_integrate"]], rk4, 1e6),
            "us/step",
        ),
        "drift.drift_rhs.calls": (calls[ix["drift.drift_rhs"]], "count"),
        "cli.parse_config.s": (incl[ix["cli.parse_config"]], "s"),
        "cli.trajectory_csv.us_per_row": (
            _per(own[ix["cli.trajectory_csv"]], counts.get("cli.trajectory_csv.rows", 0), 1e6),
            "us/row",
        ),
        "cli.error_csv.us_per_row": (
            _per(own[ix["cli.error_csv"]], counts.get("cli.error_csv.rows", 0), 1e6),
            "us/row",
        ),
        "cli.bytes_written": (bytes_written, "bytes"),
        "cli.self_s": (layer_self("cli"), "s"),
        "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
    }
    for name in ("run_trajectory", "run_reference", "run_drift", "error_vs_reference",
                 "error_vs_drift"):
        values[f"harness.{name}.s"] = (incl[ix[f"harness.{name}"]], "s")
    for layer in LAYERS:
        values[f"{layer}.share"] = (layer_self(layer) / wall, "ratio")
    per_sample = (incl[ix["boris.nondegeneracy_sigma"]] + incl[ix["harness.observables"]]
                  + layer_self("cli"))
    values["per_sample.share"] = (per_sample / wall, "ratio")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def environment(modules: dict) -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": bool(modules["_kernels"].HAVE_NUMBA),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    modules = load_package()
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(RUN_DIR, f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        setup_inv, invocations = write_invocations(workload, args.seed, work_dir)
        runner = Runner(workload, invocations, modules["cli"])
        setup_times = []
        if not args.trace:
            setup_times = [runner.probe(setup_inv) for _ in range(SETUP_PROBES)]
        runner.invoke(setup_inv)  # lazy set-up of this process, before timing
        if args.trace:
            walls = repeat(args.seconds / 2, runner.run_pass)
            tracer = Tracer(modules)
            totals = []

            def traced_pass():
                tracer.reset()
                wall = runner.run_pass()
                totals.append(tracer.totals())
                return wall

            with tracer:
                repeat(args.seconds / 2, traced_pass)
            tracer.write_spans(os.path.join(RUN_DIR, f"spans-{workload.name}.csv"))
            metrics = layer_metrics(
                tracer.labels, totals, statistics.median(walls), runner.pass_bytes
            )
        else:
            walls = repeat(args.seconds, runner.run_pass)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed_ratio = runner.failed / runner.attempted
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(modules),
        "invocations_per_pass": len(invocations),
        "work_per_pass": workload.work_counts(),
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_probe_s": setup_times,
        "failed_ratio": failed_ratio,
    }
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} failed_ratio = {failed_ratio:.6g} ratio"
          f" ({runner.failed} of {runner.attempted} invocations)")
    print(json.dumps({"record": record}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
