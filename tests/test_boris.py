"""Pusher algebra, scheme equivalences and integrate() behavior."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import shutil
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toroboris as tb
from toroboris import _kernels
from toroboris.errors import AxisSingularity, DomainError

from conftest import X0, V0, python_backend
from uniform_model import UniformFieldModel


# ---------------------------------------------------------------------------
# magnetic moment and velocity filtering


def test_moment_uniform_field():
    m = UniformFieldModel(B0=(0.0, 0.0, 100.0))
    assert abs(tb.magnetic_moment((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), m) - 0.005) <= 1e-18


def test_moment_parallel_velocity_is_zero():
    m = UniformFieldModel(B0=(0.0, 0.0, 100.0))
    assert tb.magnetic_moment((1.0, 0.0, 0.0), (0.0, 0.0, 3.0), m) <= 1e-30


def test_moment_benchmark_value(model_1e3):
    # exact rational: |v x e_par|^2 / (2 b) * eps with b = 2/3
    v_x_epar_sq = F(949, 625)
    want = float(v_x_epar_sq / (2 * F(2, 3)) * F(1, 1000))
    got = tb.magnetic_moment(X0, V0, model_1e3)
    assert abs(got - want) <= 1e-12 * want
    assert abs(got - float(F(2847, 2500)) * 1e-3) <= 1e-12 * got


def filtered(x, v, model):
    """The modified variant's initial velocity: v projected onto B(x)."""
    return tb.initialize(x, v, model, tb.PusherConfig(0.04, "modified"))[1]


def test_filter_benchmark_value(model_1e3):
    vf = filtered(X0, V0, model_1e3)
    want = np.array([float(F(22, 75) * F(-3, 5)), float(F(22, 75) * F(4, 5)), 0.0])
    np.testing.assert_allclose(vf, want, rtol=1e-13, atol=1e-16)


def test_filter_idempotent_and_contractive(model_1e3):
    rng = np.random.default_rng(0)
    for p in tb.toroidal_probes(20, seed=12):
        v = rng.normal(size=3)
        v1 = filtered(p, v, model_1e3)
        v2 = filtered(p, v1, model_1e3)
        assert np.max(np.abs(v2 - v1)) <= 1e-15 * max(1.0, np.linalg.norm(v1))
        assert np.linalg.norm(v1) <= np.linalg.norm(v) * (1 + 1e-15)


def test_filter_perpendicular_velocity_vanishes(model_1e3):
    fr = tb.frame(X0)
    v_perp = 0.7 * fr.e_r + 1.3 * fr.e_z
    vf = filtered(X0, v_perp, model_1e3)
    assert np.max(np.abs(vf)) <= 1e-15


# ---------------------------------------------------------------------------
# rotation solve


def solve_rotation(c, rhs):
    """Exact solution u of u + c x u = rhs (rational cross-product inverse).

    An oracle written independently of the stepping loop's expression shapes.
    """
    return (rhs - np.cross(c, rhs) + (c @ rhs) * c) / (1.0 + c @ c)


def test_solve_rotation_example():
    u = solve_rotation(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(u, [0.5, -0.5, 0.0], rtol=0, atol=1e-16)
    np.testing.assert_allclose(u + np.cross([0, 0, 1.0], u), [1.0, 0.0, 0.0], atol=1e-16)


@settings(max_examples=200)
@given(
    c=st.tuples(*[st.floats(-100, 100) for _ in range(3)]),
    rhs=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
)
def test_solve_rotation_residual(c, rhs):
    c = np.asarray(c)
    rhs = np.asarray(rhs)
    u = solve_rotation(c, rhs)
    resid = u + np.cross(c, u) - rhs
    scale = max(np.linalg.norm(rhs), np.linalg.norm(u) * (1 + np.linalg.norm(c)), 1e-30)
    assert np.linalg.norm(resid) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# two-step recursion, checked on the rows of integrate(..., sample_every=1);
# the uniform model runs on the Python loop, the toroidal model on the C kernel


def test_two_step_free_flight():
    m = UniformFieldModel(B0=(0.0, 0.0, 0.0))
    cfg = tb.PusherConfig(h=0.25, variant="standard")
    traj = tb.integrate((1.0, 2.0, 3.0), (2.0, 2.0, 1.0), m, cfg, 1.0, sample_every=1)
    assert traj.error is None
    steps = np.arange(5)[:, None]
    np.testing.assert_array_equal(traj.x, [1.0, 2.0, 3.0] + steps * [0.5, 0.5, 0.25])
    np.testing.assert_array_equal(traj.v, np.tile([2.0, 2.0, 1.0], (5, 1)))


def test_two_step_constant_force():
    # x(t) = v0 t + E t^2 / 2 is quadratic, so the recursion reproduces it exactly
    m = UniformFieldModel(B0=(0.0, 0.0, 0.0), E0=(0.0, 1.0, 0.0))
    cfg = tb.PusherConfig(h=0.5, variant="standard")
    traj = tb.integrate(np.zeros(3), (1.0, 0.0, 0.0), m, cfg, 2.0, sample_every=1)
    assert traj.error is None
    t = traj.t
    np.testing.assert_array_equal(t, [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_array_equal(traj.x, np.stack([t, 0.5 * t * t, 0 * t], axis=1))
    np.testing.assert_array_equal(traj.v, np.stack([1 + 0 * t, t, 0 * t], axis=1))


def test_two_step_satisfies_implicit_relation(model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    h = cfg.h
    traj = tb.integrate(X0, V0, model_1e3, cfg, 200 * h, sample_every=1)
    xs = traj.x
    for i in range(1, len(traj) - 1):
        s = tb.eval_field(model_1e3, xs[i])
        vn = (xs[i + 1] - xs[i - 1]) / (2 * h)
        np.testing.assert_allclose(traj.v[i], vn, rtol=0, atol=1e-12)
        lhs = (xs[i + 1] - 2 * xs[i] + xs[i - 1]) / h**2
        rhs = np.cross(vn, s.B) + s.E - mu0_1e3 * s.gradAbsB
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_two_step_sanity_guard():
    # a strong electric field makes the first step longer than the bound
    # 10 (|v0| + 1) h: no step is taken, on either backend
    model = tb.ToroidalFieldModel(1e-3, c=1e4)
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    for backend in (contextlib.nullcontext, python_backend):
        with backend():
            traj = tb.integrate(X0, V0, model, cfg, 4.0, sample_every=1)
        assert (traj.error, traj.steps_completed, len(traj)) == ("sanity_guard", 0, 1)
        np.testing.assert_array_equal(traj.x[0], X0)


# ---------------------------------------------------------------------------
# one-step push


def test_one_step_rotation_angle_and_norm():
    w = 50.0
    h = 0.01
    m = UniformFieldModel(B0=(0.0, 0.0, w))
    cfg = tb.PusherConfig(h=h, variant="standard")
    st0 = tb.ParticleState(t=0.0, x=np.zeros(3), v=np.array([1.0, 0.0, 0.0]))
    st1 = tb.one_step_push(st0, m, cfg)
    assert abs(np.linalg.norm(st1.v) - 1.0) <= 1e-15
    # positive charge in B = +z rotates v from +x toward -y by theta
    theta = 2 * math.atan(w * h / 2)
    np.testing.assert_allclose(st1.v, [math.cos(theta), -math.sin(theta), 0.0], atol=1e-14)
    np.testing.assert_allclose(st1.x, st0.x + h * st1.v, atol=1e-16)


def test_one_step_electric_only():
    m = UniformFieldModel(B0=(0.0, 0.0, 0.0), E0=(0.3, -0.2, 0.7))
    cfg = tb.PusherConfig(h=0.1, variant="standard")
    st0 = tb.ParticleState(t=0.0, x=np.zeros(3), v=np.array([1.0, 1.0, 1.0]))
    st1 = tb.one_step_push(st0, m, cfg)
    np.testing.assert_allclose(st1.v, st0.v + 0.1 * np.array([0.3, -0.2, 0.7]), atol=1e-16)


def test_one_step_zero_field_free_flight():
    m = UniformFieldModel(B0=(0.0, 0.0, 0.0))
    cfg = tb.PusherConfig(h=0.1, variant="standard")
    st0 = tb.ParticleState(t=0.0, x=np.array([1.0, 0.0, 0.0]), v=np.array([0.0, 2.0, 0.0]))
    st1 = tb.one_step_push(st0, m, cfg)
    np.testing.assert_array_equal(st1.v, st0.v)
    np.testing.assert_allclose(st1.x, [1.0, 0.2, 0.0], atol=1e-16)


def test_one_step_speed_preserved_per_step(model_1e3):
    # no electric force: c = 0 and mu0 = 0 keeps E_mod = 0
    m = tb.ToroidalFieldModel(1e-3, c=0.0)
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    st0 = tb.ParticleState(t=0.0, x=np.asarray(X0), v=np.asarray(V0))
    for _ in range(200):
        st1 = tb.one_step_push(st0, m, cfg)
        assert abs(np.linalg.norm(st1.v) - np.linalg.norm(st0.v)) <= 1e-14 * np.linalg.norm(st0.v)
        st0 = st1


# ---------------------------------------------------------------------------
# initialization


def test_initialize_parallel_start_is_linear():
    m = tb.ToroidalFieldModel(1e-3, a0=1.0, a1=0.0, a2=0.0, c=0.0)
    fr = tb.frame(X0)
    v_par = 0.4 * fr.e_par
    cfg = tb.PusherConfig(h=1e-3, variant="modified", mu0=0.0)
    seed, v0 = tb.initialize(X0, v_par, m, cfg)
    # v0 x B vanishes, so x^1 is the linear step x^0 + h v0
    np.testing.assert_allclose(seed.x, np.asarray(X0) + cfg.h * v0, rtol=0, atol=1e-18)
    np.testing.assert_allclose(seed.v, v0, rtol=0, atol=1e-13)


def test_initialize_standard_keeps_raw_velocity(model_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    _, v0 = tb.initialize(X0, V0, model_1e3, cfg)
    np.testing.assert_array_equal(v0, V0)


def test_initialize_modified_filters(model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    _, v0 = tb.initialize(X0, V0, model_1e3, cfg)
    want = np.array([float(F(22, 75) * F(-3, 5)), float(F(22, 75) * F(4, 5)), 0.0])
    np.testing.assert_allclose(v0, want, rtol=1e-13, atol=1e-16)


# ---------------------------------------------------------------------------
# two-step / one-step equivalence and path identity


def run_one_step_positions(x0, v0, model, cfg, n):
    seed, _ = tb.initialize(x0, v0, model, cfg)
    xs = np.empty((n + 1, 3))
    xs[0] = x0
    xs[1] = seed.x
    st0 = seed
    for i in range(2, n + 1):
        st0 = tb.one_step_push(st0, model, cfg)
        xs[i] = st0.x
    return xs


def test_scheme_equivalence_modified(model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    n = 2000
    xs_one = run_one_step_positions(X0, V0, model_1e3, cfg, n)
    traj = tb.integrate(X0, V0, model_1e3, cfg, n * cfg.h, sample_every=1)
    scale = np.max(np.linalg.norm(xs_one, axis=1))
    diff = np.max(np.linalg.norm(traj.x - xs_one, axis=1))
    assert diff <= 1e-10 * scale


def test_scheme_equivalence_uniform_field():
    m = UniformFieldModel(B0=(0.0, 0.0, 300.0))
    cfg = tb.PusherConfig(h=1e-3, variant="standard")
    x0 = (0.0, -1.0 / 300.0, 0.0)
    v0 = (1.0, 0.0, 0.1)
    n = 5000
    xs_one = run_one_step_positions(x0, v0, m, cfg, n)
    traj = tb.integrate(x0, v0, m, cfg, n * cfg.h, sample_every=1)
    scale = np.max(np.linalg.norm(xs_one, axis=1))
    assert np.max(np.linalg.norm(traj.x - xs_one, axis=1)) <= 1e-10 * scale


def test_compiled_and_generic_paths_identical(model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    a = tb.integrate(X0, V0, model_1e3, cfg, 200.0, sample_every=1)
    # with a compiler on PATH the first run must have been the C kernel
    if shutil.which("cc"):
        assert _kernels.BACKEND == "c", _kernels.FALLBACK_REASON
    with python_backend():
        b = tb.integrate(X0, V0, model_1e3, cfg, 200.0, sample_every=1)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.t, b.t)


# ---------------------------------------------------------------------------
# reversibility


def test_two_step_reversibility(model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    n = 500
    traj = tb.integrate(X0, V0, model_1e3, cfg, n * cfg.h, sample_every=1)
    # backward recursion from the position-form relation, solved independently:
    # x^{n-1} + c x x^{n-1} = d_back - c x d_back + h^2 E_mod with fields at x^n
    h = cfg.h
    xs = traj.x
    x_hi = xs[n]
    x_lo = xs[n - 1]
    for k in range(n - 1, 0, -1):
        s = tb.eval_field(model_1e3, x_lo)
        emod = s.E - mu0_1e3 * s.gradAbsB
        c = -0.5 * h * s.B
        d = x_lo - x_hi
        rhs = d - np.cross(c, d) + h * h * emod
        d_prev = solve_rotation(c, rhs)
        x_hi, x_lo = x_lo, x_lo + d_prev
    assert np.max(np.abs(x_lo - xs[0])) <= 1e-9


# ---------------------------------------------------------------------------
# energy behavior


def test_energy_drift_fine_steps(model_1e3):
    cfg = tb.PusherConfig(h=0.05 * 1e-3, variant="standard")
    traj = tb.integrate(X0, V0, model_1e3, cfg, 10.0, sample_every=1000)
    obs = tb.observables(traj)
    e0 = obs.energy[0]
    assert np.max(np.abs(obs.energy - e0)) <= 1e-4 * abs(e0)


# ---------------------------------------------------------------------------
# nondegeneracy monitor


def dense_sigma_oracle(x, v, h, model):
    s = tb.eval_field(model, x)
    v = np.asarray(v, dtype=float)
    e = s.B / s.absB
    p_par = np.outer(e, e)
    p_perp = np.eye(3) - p_par
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])
    m3 = p_perp @ (np.eye(3) + 0.25 * h * h * vx @ s.jacB) @ p_perp
    svs = np.linalg.svd(m3 + p_par, compute_uv=False)
    # drop the singular value contributed by the parallel block (exactly 1)
    drop = int(np.argmin(np.abs(svs - 1.0)))
    rest = np.delete(svs, drop)
    rank2 = np.sort(np.linalg.svd(m3, compute_uv=False))
    assert rank2[0] <= 1e-12 * max(1.0, rank2[-1])
    assert abs(min(rest) - rank2[1]) <= 1e-12
    return min(rest)


def test_sigma_uniform_field_is_one():
    m = UniformFieldModel(B0=(0.0, 0.0, 50.0))
    assert abs(tb.nondegeneracy_sigma((1.0, 0.0, 0.0), (0.3, 0.2, 0.1), 0.1, m) - 1.0) <= 1e-14


def test_sigma_zero_step_is_one(model_1e3):
    assert abs(tb.nondegeneracy_sigma(X0, V0, 0.0, model_1e3) - 1.0) <= 1e-14


def test_sigma_matches_dense_oracle(model_1e3):
    got = tb.nondegeneracy_sigma(X0, V0, 0.04, model_1e3)
    want = dense_sigma_oracle(X0, V0, 0.04, model_1e3)
    assert abs(got - want) <= 1e-12
    assert abs(got - 0.6561965033804869) <= 1e-12


def test_sigma_parallel_velocity_is_one(model_1e3):
    vf = filtered(X0, V0, model_1e3)
    assert abs(tb.nondegeneracy_sigma(X0, vf, 0.04, model_1e3) - 1.0) <= 1e-13


def test_monitor_collects_warnings(model_1e3):
    # large standard-Boris steps dip below the 0.1 threshold a few times
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    traj = tb.integrate(X0, V0, model_1e3, cfg, 20.0, sample_every=1)
    sigma_min, warnings = tb.monitor_nondegeneracy(traj)
    sigmas = [tb.nondegeneracy_sigma(x, v, cfg.h, model_1e3) for x, v in zip(traj.x, traj.v)]
    assert sigma_min == min(sigmas)
    low = [i for i, sig in enumerate(sigmas) if sig < 0.1]
    assert len(low) == 8
    assert warnings == [
        {"kind": "nondegeneracy", "t": float(traj.t[i]), "sigma": sigmas[i]} for i in low
    ]


def test_monitor_raises_off_the_domain_like_observables(model_1e3):
    # samples no run writes: on the axis (r_min 1) or off the domain (b = r + z^2 - 1 < 0)
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    traj = tb.integrate(X0, V0, model_1e3, cfg, 0.4, sample_every=1)
    for bound, error in (({"r_min": 1.0}, AxisSingularity), ({"a0": -1.0}, DomainError)):
        off_domain = dataclasses.replace(traj, field=dataclasses.replace(model_1e3, **bound))
        with pytest.raises(error) as want:
            tb.observables(off_domain)
        with pytest.raises(error) as got:
            tb.monitor_nondegeneracy(off_domain)
        assert got.value.args == want.value.args


# ---------------------------------------------------------------------------
# integrate: guards, errors, determinism


def test_integrate_rejects_short_runs(model_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    with pytest.raises(ValueError):
        tb.integrate(X0, V0, model_1e3, cfg, 0.0)
    with pytest.raises(ValueError):
        tb.integrate(X0, V0, model_1e3, cfg, 0.04)


def test_integrate_rejects_t_final_off_the_step_grid(model_1e3):
    # 0.09 / 0.04 rounds to 2 steps, which would silently stop at t = 0.08
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    with pytest.raises(ValueError, match="multiple"):
        tb.integrate(X0, V0, model_1e3, cfg, 0.09)
    assert tb.integrate(X0, V0, model_1e3, cfg, 0.12).t[-1] == pytest.approx(0.12)
    # 1e8 steps of 1e-6 and 0.05 of one: it used to run 1e8 steps, to t = 100
    cfg = tb.PusherConfig(h=1e-6, variant="standard")
    with pytest.raises(ValueError, match=r"t_final=100.00000005 must be a multiple \(>= 2\)"):
        tb.integrate(X0, V0, model_1e3, cfg, 100.00000005, sample_every=10**7)


def test_integrate_axis_abort_tags_partial_trajectory():
    # shrinking-radius run: no grad-B force, inward electric drift
    m = tb.ToroidalFieldModel(1e-3, r_min=0.416)
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=0.0)
    traj = tb.integrate(X0, V0, m, cfg, 400.0, sample_every=1)
    assert traj.error == "axis_singularity"
    assert 0 < traj.steps_completed < 10000
    assert len(traj) == traj.steps_completed // 1 + 1


def test_integrate_domain_abort(model_1e3):
    # the drift carries this orbit into b = r + z^2 - 0.3 < 0 around t ~ 390
    m = dataclasses.replace(model_1e3, a0=-0.3)
    mu0 = tb.magnetic_moment(X0, V0, model_1e3)
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0)
    traj = tb.integrate(X0, V0, m, cfg, 1000.0, sample_every=1)
    assert traj.error == "domain_error"
    assert 0 < traj.steps_completed < 25000


def test_integrate_runaway_abort():
    # the first step is longer than 10 (|v0| + 1) h
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    traj = tb.integrate(X0, V0, tb.ToroidalFieldModel(1e-3, c=1e4), cfg, 4.0, sample_every=1)
    assert traj.error == "sanity_guard"
    assert traj.steps_completed == 0


def test_integrate_initial_state_errors_raise():
    m = tb.ToroidalFieldModel(1e-3, r_min=0.5)
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    with pytest.raises(AxisSingularity):
        tb.integrate(X0, V0, m, cfg, 4.0)


def test_integrate_deterministic(model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    a = tb.integrate(X0, V0, model_1e3, cfg, 40.0, sample_every=5)
    b = tb.integrate(X0, V0, model_1e3, cfg, 40.0, sample_every=5)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.v, b.v)


def test_integrate_sample_grid(model_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    traj = tb.integrate(X0, V0, model_1e3, cfg, 4.0, sample_every=25)
    np.testing.assert_allclose(traj.t, [0.0, 1.0, 2.0, 3.0, 4.0], rtol=0, atol=1e-12)


def test_field_line_motion_r_z_constant():
    # uniform-magnitude profile, no electric field, start along the field
    m = tb.ToroidalFieldModel(1e-12, a0=1.0, a1=0.0, a2=0.0, c=0.0)
    fr = tb.frame(X0)
    v0 = (22 / 75) * fr.e_par
    cfg = tb.PusherConfig(h=3e-7, variant="modified", mu0=0.0)
    traj = tb.integrate(X0, v0, m, cfg, 1000 * cfg.h, sample_every=10)
    obs = tb.observables(traj)
    assert np.max(np.abs(obs.r - obs.r[0])) <= 1e-12
    assert np.max(np.abs(obs.z - obs.z[0])) <= 1e-12


def test_pusher_config_validation():
    with pytest.raises(ValueError):
        tb.PusherConfig(h=0.0)
    with pytest.raises(ValueError):
        tb.PusherConfig(h=0.1, variant="boris")
    with pytest.raises(ValueError):
        tb.PusherConfig(h=0.1, mu0=-1.0)
