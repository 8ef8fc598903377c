"""Seeded workloads: generated CLI configs and the checks on their outputs.

Every workload runs the paper's benchmark orbit (eps = 1e-3, field preset
``paper-toroidal`` with a0=0, a1=1, a2=1, c=0.1).  The seed picks one angle
per invocation, and the orbit's x0 and v0 are rotated by it about the
symmetry axis: the slow physics is the same, the floating-point inputs are
not.  Invocation 0 is the unrotated orbit, the canary, whose error maxima
are pinned.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

PAPER_X0 = (0.3333333333333333, 0.25, 0.5)
PAPER_V0 = (0.4, 0.6666666666666666, 1.0)
EPSILON = 1e-3
FIELD = {"preset": "paper-toroidal", "a0": 0.0, "a1": 1.0, "a2": 1.0, "c": 0.1}
H = 0.04
REF_H_FACTOR = 0.05  # the CLI default: reference step = 0.05 eps

# Rotated runs must reproduce the canary's error maxima to this relative
# tolerance (axisymmetry); the canary must reproduce its pins to PIN_RTOL.
ROTATION_RTOL = 1e-6
PIN_RTOL = 1e-12
# Observables recomputed from a trajectory CSV must match within OBS_RTOL of
# their value plus a rounding floor of OBS_FLOOR times the quantity's natural
# scale (see _observables), which only matters where a value is near 0.
OBS_RTOL = 1e-12
OBS_FLOOR = 1e-15


@dataclass(frozen=True)
class Workload:
    """One closed-loop stream of CLI invocations on generated configs."""

    name: str
    command: str  # "simulate" or "compare"
    t_final: float
    stride: float
    invocations: int  # the canary plus invocations - 1 rotated orbits
    against: str = "reference"
    dtau: float = 1e-4
    # The canary's pinned error maxima (compare workloads only).
    pinned_max_err: dict | None = None

    def config(self, x0, v0, t_final: float, stride: float, out_dir: str, tag: str) -> dict:
        cfg = {
            "epsilon": EPSILON,
            "h": H,
            "t_final": t_final,
            "variant": "modified",
            "field": FIELD,
            "x0": list(x0),
            "v0": list(v0),
            "dtau": self.dtau,
            "output": {"path": os.path.join(out_dir, f"{tag}.csv"), "stride": stride},
        }
        if self.command == "compare":
            cfg["against"] = self.against
            cfg["output"]["summary_path"] = os.path.join(out_dir, f"{tag}.summary.json")
        return cfg

    def work_counts(self) -> dict:
        """Steps, samples and RK4 steps of one pass over the invocation list."""
        n = round(self.t_final / H)
        every = round(self.stride / H)
        samples = n // every + 1
        steps = n
        rk4 = 0
        if self.command == "compare" and self.against == "reference":
            steps += round(self.t_final / h_ref(self.stride))
            samples *= 2
        if self.command == "compare" and self.against == "drift":
            rk4 = rk4_steps([i * H for i in range(0, n + 1, every)], EPSILON, self.dtau)
        return {
            "pusher_steps": steps * self.invocations,
            "samples": samples * self.invocations,
            "rk4_steps": rk4 * self.invocations,
        }


WORKLOADS = {
    w.name: w
    for w in (
        # The stepping kernel: 1e4 reference steps per sample, no drift.
        Workload(
            name="fine-reference",
            command="compare",
            t_final=10.0,
            stride=0.4,
            invocations=4,
            against="reference",
            pinned_max_err={
                "r": 0.0030385294290569687,
                "z": 0.0035355324343949723,
                "vpar": 0.002062568295644829,
            },
        ),
        # Per-sample layers: one CSV row, sigma and observables per step.
        Workload(
            name="dense-output",
            command="simulate",
            t_final=200.0,
            stride=H,
            invocations=3,
        ),
        # Slow-system RK4: 1e4 RK4 steps against 2500 pusher steps.
        Workload(
            name="slow-compare",
            command="compare",
            t_final=100.0,
            stride=10.0,
            invocations=12,
            against="drift",
            dtau=1e-5,
            pinned_max_err={
                "r": 0.0008925214910128765,
                "z": 0.0011350678811894999,
                "vpar": 0.0004780938058884243,
            },
        ),
    )
}


def h_ref(stride: float) -> float:
    """Reference step of the CLI: 0.05 eps, shortened to divide the stride."""
    return stride / math.ceil(stride / (REF_H_FACTOR * EPSILON))


def rk4_steps(sample_times, eps: float, dtau: float) -> int:
    """RK4 steps drift_integrate takes over a sample grid (its own step rule)."""
    n = 0
    tau = sample_times[0] * eps
    for t in sample_times[1:]:
        target = t * eps
        while tau < target:
            tau += min(target - tau, dtau)
            n += 1
            if target - tau < 1e-15 * max(1.0, abs(target)):
                tau = target
    return n


def _rotate(vec, angle: float):
    c, s = math.cos(angle), math.sin(angle)
    return (c * vec[0] - s * vec[1], s * vec[0] + c * vec[1], vec[2])


def orbits(workload: Workload, seed: int):
    """(x0, v0) per invocation: the canary, then one rotated orbit per angle."""
    rng = random.Random(f"{workload.name}:{seed}")
    out = [(PAPER_X0, PAPER_V0)]
    for _ in range(workload.invocations - 1):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        out.append((_rotate(PAPER_X0, angle), _rotate(PAPER_V0, angle)))
    return out


@dataclass(frozen=True)
class Invocation:
    argv: list
    outputs: tuple  # files the invocation must write
    canary: bool = False
    setup: bool = False  # the 2-step warm-up: exit code and outputs only


def write_invocations(workload: Workload, seed: int, out_dir: str):
    """Write the configs of one workload; returns (setup invocation, list)."""

    def make(tag, x0, v0, t_final, stride, **kind):
        path = os.path.join(out_dir, f"{tag}.config.json")
        cfg = workload.config(x0, v0, t_final, stride, out_dir, tag)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        outs = (cfg["output"]["path"],) + (
            (cfg["output"]["summary_path"],) if "summary_path" in cfg["output"] else ()
        )
        return Invocation([workload.command, "--config", path], outs, **kind)

    setup = make("setup", PAPER_X0, PAPER_V0, 2 * H, H, setup=True)
    invs = [
        make(f"inv{i}", x0, v0, workload.t_final, workload.stride, canary=i == 0)
        for i, (x0, v0) in enumerate(orbits(workload, seed))
    ]
    return setup, invs


def _rel_close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_compare(workload: Workload, inv: Invocation, canary_max_err: dict | None):
    """Check a compare summary; returns (error message or None, max_err)."""
    with open(inv.outputs[1], encoding="utf-8") as f:
        summary = json.load(f)
    steps = summary["steps"]
    want_run = round(workload.t_final / H)
    if steps["run"] != want_run:
        return f"run steps {steps['run']} != {want_run}", None
    if workload.against == "reference":
        want_ref = round(workload.t_final / h_ref(workload.stride))
        if steps["reference"] != want_ref:
            return f"reference steps {steps['reference']} != {want_ref}", None
    elif steps["reference"] is not None:
        return "drift comparison reported reference steps", None
    want_samples = round(workload.t_final / workload.stride) + 1
    if summary["n_samples"] != want_samples:
        return f"n_samples {summary['n_samples']} != {want_samples}", None
    max_err = summary["max_err"]
    if inv.canary:
        want, rtol = workload.pinned_max_err, PIN_RTOL
    else:
        want, rtol = canary_max_err, ROTATION_RTOL
    for comp in ("r", "z", "vpar"):
        if not _rel_close(max_err[comp], want[comp], rtol):
            return f"max_err[{comp}] = {max_err[comp]!r}, expected {want[comp]!r}", None
    return None, max_err


def _observables(x, v):
    """Closed-form r, z, v_par, mu, energy of the paper field, and their scales."""
    a0, a1, a2, c = FIELD["a0"], FIELD["a1"], FIELD["a2"], FIELD["c"]
    r = np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1])
    z = x[:, 2]
    e_par = np.stack([-x[:, 1] / r, x[:, 0] / r, np.zeros_like(r)], axis=1)
    vpar = np.sum(e_par * v, axis=1)
    abs_b = (a0 + a1 * r + a2 * z * z) / EPSILON
    w = np.cross(v, abs_b[:, None] * e_par)
    mu = 0.5 * np.sum(w * w, axis=1) / abs_b**3
    v2 = np.sum(v * v, axis=1)
    phi = -c * r * z
    return {"r": r, "z": z, "vpar": vpar, "mu": mu, "energy": 0.5 * v2 + phi}, {
        "r": r,
        "z": r,
        "vpar": np.sqrt(v2),
        "mu": 0.5 * v2 / abs_b,
        "energy": 0.5 * v2 + np.abs(phi),
    }


def check_trajectory(workload: Workload, inv: Invocation):
    """Check a trajectory CSV against observables recomputed from its x, v."""
    path = inv.outputs[0]
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    want_rows = round(workload.t_final / workload.stride) + 1
    if data.shape != (want_rows, len(header)):
        return f"trajectory shape {data.shape}, expected ({want_rows}, {len(header)})"
    col = {name: data[:, i] for i, name in enumerate(header)}
    t_want = np.arange(want_rows) * workload.stride
    if np.max(np.abs(col["t"] - t_want)) > 1e-12 * workload.t_final:
        return "trajectory time grid is off"
    x = np.stack([col["x1"], col["x2"], col["x3"]], axis=1)
    v = np.stack([col["v1"], col["v2"], col["v3"]], axis=1)
    want, scale = _observables(x, v)
    for name, ref in want.items():
        bad = np.abs(col[name] - ref) > OBS_RTOL * np.abs(ref) + OBS_FLOOR * scale[name]
        if np.any(bad):
            i = int(np.argmax(bad))
            return f"{name} at row {i}: {col[name][i]!r} != {ref[i]!r}"
    return None
