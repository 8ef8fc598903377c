"""Acceptance gate: one test per criterion, each at its pinned tolerance.

Every test prints a single PASS line with the measured quantities (visible
under pytest -s), so the suite doubles as the acceptance report.  Snapshot
values pinned at 1e-12 relative tolerance come from the first verified run
and guard later refactors; they are regression baselines, not ground truth.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import toroboris as tb
from toroboris.drift import DriftState

from conftest import X0, V0
from uniform_model import UniformFieldModel

EPS = 1e-3
MUHAT = F(2847, 2500)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE PASS {criterion}: {detail}")


def snap(value, baseline):
    """Regression snapshot from the first verified run (1e-12 relative)."""
    assert value == pytest.approx(baseline, rel=1e-12), f"snapshot drift: {value!r} vs {baseline!r}"


# ---------------------------------------------------------------------------
# 1. scheme equivalence


def test_criterion_1_scheme_equivalence(model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    n = 10_000
    t0 = time.perf_counter()
    seed, _ = tb.initialize(X0, V0, model_1e3, cfg)
    xs_one = np.empty((n + 1, 3))
    xs_one[0] = X0
    xs_one[1] = seed.x
    state = seed
    for i in range(2, n + 1):
        state = tb.one_step_push(state, model_1e3, cfg)
        xs_one[i] = state.x
    traj = tb.integrate(X0, V0, model_1e3, cfg, n * cfg.h, sample_every=1)
    elapsed = time.perf_counter() - t0
    scale = np.max(np.linalg.norm(xs_one, axis=1))
    rel = np.max(np.linalg.norm(traj.x - xs_one, axis=1)) / scale
    assert rel <= 1e-10
    assert elapsed < 1.0
    snap(
        traj.x[-1].tolist(),
        [-0.30685313221275723, -0.5726109107583343, -0.11737325329230298],
    )
    report("1 scheme-equivalence", f"max rel divergence {rel:.3e} over 1e4 steps, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. drift invariant conservation


def test_criterion_2_drift_conservation(model_1e3):
    mu0 = float(MUHAT) * EPS
    cfg = tb.DriftConfig(mu0=mu0, dtau=1e-4)
    s0 = tb.drift_init(X0, V0, model_1e3)
    t0 = time.perf_counter()
    traj = tb.drift_integrate(s0, model_1e3, cfg, np.linspace(0.0, 1000.0, 201))
    elapsed = time.perf_counter() - t0
    rv = traj.rv_invariant
    worst = np.max(np.abs(rv - rv[0])) / abs(rv[0])
    assert worst <= 1e-9
    assert elapsed < 1.0
    snap(
        [traj.r[-1], traj.z[-1], traj.vpar[-1]],
        [0.5637588367053104, 0.3447030170322176, 0.2167987697323698],
    )
    report("2 drift-conservation", f"max rel invariant drift {worst:.3e} over tau in [0,1], {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. quadratic step-size scaling against the slow system


def test_criterion_3_h_squared_scaling(model_1e3):
    base = tb.ExperimentSpec(
        field=model_1e3, x0=X0, v0=V0, h=0.04, t_final=500.0, c=0.5
    )
    rep, _ = tb.convergence_study(base, "scaled_pairs", pairs=[(1e-3, 0.04), (2.5e-4, 0.02)])
    assert rep["passed"]
    for comp in ("r", "z", "vpar"):
        assert 1.7 <= rep["slopes"][comp] <= 2.3, (comp, rep["slopes"][comp])
    snap(
        [rep["slopes"]["r"], rep["slopes"]["z"], rep["slopes"]["vpar"]],
        [1.9866089235966873, 1.9983815401218783, 1.9866238724881968],
    )
    snap(
        [rep["points"][0]["max_err"][c] for c in ("r", "z", "vpar")],
        [0.0023996097624079393, 0.0022900538424674433, 0.0008959638152288563],
    )
    snap(
        [rep["points"][1]["max_err"][c] for c in ("r", "z", "vpar")],
        [0.0006054966496925607, 0.0005731560842985872, 0.00022607737124424876],
    )
    report(
        "3 h^2-scaling",
        "slopes " + ", ".join(f"{c}={rep['slopes'][c]:.3f}" for c in ("r", "z", "vpar")),
    )


# ---------------------------------------------------------------------------
# 4. linear epsilon scaling of the finely resolved dynamics


def test_criterion_4_epsilon_scaling():
    rep, _ = tb.theorem1_suite(tb.ToroidalFieldModel(1e-2), [1e-2, 1e-3], 0.5, X0, V0)
    assert rep["passed"]
    for comp, ratio in rep["ratios"][0].items():
        assert 10 / 3 <= ratio <= 30.0, (comp, ratio)
    snap(
        [rep["max_err"][0][c] for c in ("r", "z", "vpar")],
        [0.03302736177307858, 0.030214275839931498, 0.023325232266887763],
    )
    snap(
        [rep["max_err"][1][c] for c in ("r", "z", "vpar")],
        [0.003306304794666981, 0.0029544852380425923, 0.0022501198273140455],
    )
    report(
        "4 eps-scaling",
        "error ratios " + ", ".join(f"{c}={r:.2f}" for c, r in rep["ratios"][0].items()),
    )


# ---------------------------------------------------------------------------
# 5. large-step standard pusher loses the drift, modified keeps it


def test_criterion_5_standard_vs_modified(model_1e3):
    spec_mod = tb.ExperimentSpec(
        field=model_1e3, x0=X0, v0=V0, h=0.04, t_final=1000.0, variant="modified", c=1.0
    )
    spec_std = tb.ExperimentSpec(
        field=model_1e3, x0=X0, v0=V0, h=0.04, t_final=1000.0, variant="standard", c=1.0
    )
    ref_obs = tb.observables(tb.run_reference(spec_mod))
    err_mod = tb.error_vs_reference(tb.observables(tb.run_trajectory(spec_mod)), ref_obs)
    err_std = tb.error_vs_reference(tb.observables(tb.run_trajectory(spec_std)), ref_obs)
    ratio = err_std.max_by_component()["z"] / err_mod.max_by_component()["z"]
    assert ratio >= 10.0
    snap([err_mod.max_by_component()["z"], err_std.max_by_component()["z"]],
         [0.1544986115106562, 2.5084998420874958])
    report(
        "5 qualitative-drift",
        f"max|z - z_ref|: standard {err_std.max_by_component()['z']:.4f} "
        f"vs modified {err_mod.max_by_component()['z']:.4f} "
        f"(ratio {ratio:.1f})",
    )


# ---------------------------------------------------------------------------
# 6. field model self-validation


def test_criterion_6_field_validation(model_1e3):
    probes = tb.toroidal_probes(50, seed=1)
    t0 = time.perf_counter()
    rep = tb.check_field(model_1e3, probes, delta=1e-6)
    elapsed = time.perf_counter() - t0
    value = {c["name"]: c["value"] for c in rep["checks"]}
    assert rep["passed"]
    assert value["grad_b"] <= 1e-6
    assert value["epar_dot_E"] <= 1e-13
    assert value["curl_E"] <= 1e-10
    assert elapsed < 0.1
    report(
        "6 field-validation",
        f"grad {value['grad_b']:.2e}, e_par.E {value['epar_dot_E']:.2e}, "
        f"curl E {value['curl_E']:.2e}, {elapsed * 1e3:.0f} ms",
    )


# ---------------------------------------------------------------------------
# 7. exact-rational oracle spot values


def test_criterion_7_oracle_spot_values(model_1e3, mu0_1e3):
    # independent recomputation in exact rational arithmetic
    x0 = (F(1, 3), F(1, 4), F(1, 2))
    v0 = (F(2, 5), F(2, 3), F(1))
    r2 = x0[0] ** 2 + x0[1] ** 2
    r = F(5, 12)
    assert r * r == r2
    e_par = (-x0[1] / r, x0[0] / r, F(0))
    vpar = sum(e * v for e, v in zip(e_par, v0))
    assert vpar == F(22, 75)
    b = r + x0[2] ** 2
    cross = (
        v0[1] * e_par[2] - v0[2] * e_par[1],
        v0[2] * e_par[0] - v0[0] * e_par[2],
        v0[0] * e_par[1] - v0[1] * e_par[0],
    )
    vperp2 = sum(w * w for w in cross)
    muhat = vperp2 / (2 * b)
    assert muhat == MUHAT

    fr = tb.frame(X0)
    assert abs(fr.r - float(r)) <= 1e-12
    obs_vpar = float(fr.e_par @ np.asarray(V0))
    assert abs(obs_vpar - float(vpar)) <= 1e-12
    assert abs(mu0_1e3 - float(muhat * F(1, 1000))) <= 1e-12 * mu0_1e3

    # slow-system right-hand side at the benchmark state
    ez, er = F(1, 10) * r, F(1, 10) * x0[2]
    dbr, dbz = F(1), 2 * x0[2]
    want = (
        (-ez + muhat * dbz) / b,
        (vpar * vpar / r + er - muhat * dbr) / b,
        (vpar / r) * (ez - muhat * dbz) / b,
    )
    got = tb.drift_rhs(DriftState(5 / 12, 0.5, 22 / 75), model_1e3, mu0_1e3)
    for g, w in zip(got, want):
        assert abs(g - float(w)) <= 1e-12 * abs(float(w))
    report(
        "7 oracle-spot-values",
        f"mu0/eps = {float(muhat)}, vpar(0) = {float(vpar):.6f}, r(0) = {float(r):.6f}, "
        f"slow rhs ({', '.join(f'{float(w):.7f}' for w in want)})",
    )


# ---------------------------------------------------------------------------
# 8. exact-orbit oracles


def test_criterion_8_uniform_circular_orbit():
    w, h, n = 1e3, 1e-4, 100_000
    m = UniformFieldModel(B0=(0.0, 0.0, w))
    cfg = tb.PusherConfig(h=h, variant="standard")
    x0 = np.array([0.0, -1.0 / w, 0.0])
    v0 = np.array([1.0, 0.0, 0.0])
    seed, _ = tb.initialize(x0, v0, m, cfg)
    theta = 2 * math.atan(w * h / 2)
    ct, st = math.cos(theta), math.sin(theta)
    rot = np.array([[ct, st], [-st, ct]])
    center2 = seed.x[:2] + h * np.linalg.solve(np.eye(2) - rot, rot @ seed.v[:2])
    center = np.array([center2[0], center2[1], seed.x[2]])
    sp0 = np.linalg.norm(seed.v)
    r0 = np.linalg.norm(seed.x - center)
    worst_speed = 0.0
    worst_radius = 0.0
    state = seed
    for _ in range(n):
        state = tb.one_step_push(state, m, cfg)
        worst_speed = max(worst_speed, abs(np.linalg.norm(state.v) - sp0) / sp0)
        worst_radius = max(worst_radius, abs(np.linalg.norm(state.x - center) - r0) / r0)
    assert worst_speed <= 1e-12
    assert worst_radius <= 1e-12
    report(
        "8a uniform-orbit",
        f"speed drift {worst_speed:.2e}, radius drift {worst_radius:.2e} over 1e5 steps",
    )


def test_criterion_8_field_line_motion():
    m = tb.ToroidalFieldModel(1e-9, a0=1.0, a1=0.0, a2=0.0, c=0.0)
    fr = tb.frame(X0)
    v0 = (22 / 75) * fr.e_par
    cfg = tb.PusherConfig(h=1e-5, variant="modified", mu0=0.0)
    traj = tb.integrate(X0, v0, m, cfg, 0.1, sample_every=100)
    obs = tb.observables(traj)
    dr = np.max(np.abs(obs.r - obs.r[0]))
    dz = np.max(np.abs(obs.z - obs.z[0]))
    assert dr <= 1e-10
    assert dz <= 1e-10
    report("8b field-line", f"max |dr| {dr:.2e}, max |dz| {dz:.2e} over 1e4 steps")
