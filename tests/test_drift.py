"""Slow-system right-hand side, integrator and guiding-center diagnostics."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

import toroboris as tb
from toroboris.drift import DriftState
from toroboris.errors import AxisSingularity, BudgetExceeded, DomainError

from conftest import X0, V0


def exact_rhs_oracle(rt, zt, vt, muhat, a0=F(0), a1=F(1), a2=F(1), c=F(1, 10)):
    """Slow-system right-hand side in exact rational arithmetic."""
    b = a0 + a1 * rt + a2 * zt * zt
    er, ez = c * zt, c * rt
    dbr, dbz = a1, 2 * a2 * zt
    return (
        (-ez + muhat * dbz) / b,
        (vt * vt / rt + er - muhat * dbr) / b,
        (vt / rt) * (ez - muhat * dbz) / b,
    )


def test_rhs_no_field_terms_is_pure_curvature():
    m = tb.toroidal_model(1e-3, c=0.0)
    s = DriftState(r_t=0.8, z_t=0.1, v_t=0.5)
    drdt, dzdt, dvdt = tb.drift_rhs(s, m, 0.0)
    b = 0.8 + 0.01
    assert drdt == 0.0
    assert abs(dzdt - 0.5**2 / (0.8 * b)) <= 1e-15
    assert dvdt == 0.0


def test_rhs_benchmark_point(model_1e3, mu0_1e3):
    s = DriftState(r_t=5 / 12, z_t=0.5, v_t=22 / 75)
    got = tb.drift_rhs(s, model_1e3, mu0_1e3)
    want = exact_rhs_oracle(F(5, 12), F(1, 2), F(22, 75), F(2847, 2500))
    assert want == (F(16457, 10000), F(-16543, 12500), F(-181027, 156250))
    for g, w in zip(got, want):
        assert abs(g - float(w)) <= 1e-12 * abs(float(w))


def test_rhs_zero_parallel_velocity(model_1e3, mu0_1e3):
    s = DriftState(r_t=0.7, z_t=-0.2, v_t=0.0)
    drdt, dzdt, dvdt = tb.drift_rhs(s, model_1e3, mu0_1e3)
    assert dvdt == 0.0
    b = 0.7 + 0.04
    muhat = mu0_1e3 / 1e-3
    assert abs(dzdt - (0.1 * (-0.2) - muhat) / b) <= 1e-15


def test_rhs_domain_guards(mu0_1e3):
    m = tb.toroidal_model(1e-3, b_min=0.5)
    with pytest.raises(DomainError):
        tb.drift_rhs(DriftState(r_t=0.3, z_t=0.0, v_t=0.1), m, mu0_1e3)
    with pytest.raises(AxisSingularity):
        tb.drift_rhs(DriftState(r_t=1e-12, z_t=0.0, v_t=0.1), m, mu0_1e3)


# ---------------------------------------------------------------------------
# initial state


def test_drift_init_benchmark(model_1e3):
    s = tb.drift_init(X0, V0, model_1e3)
    assert abs(s.r_t - 5 / 12) <= 1e-15
    assert s.z_t == 0.5
    assert abs(s.v_t - 22 / 75) <= 1e-15


def test_drift_init_perpendicular_velocity(model_1e3):
    fr = tb.frame(X0)
    v_perp = 1.1 * fr.e_r - 0.4 * fr.e_z
    s = tb.drift_init(X0, v_perp, model_1e3)
    assert abs(s.v_t) <= 1e-15


def test_drift_init_simple_point(model_1e3):
    s = tb.drift_init((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), model_1e3)
    assert (s.r_t, s.z_t, s.v_t) == (1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# integrator


def test_integrate_constant_profile_closed_form():
    # b = 1, no electric field, no grad-B: r~ and v~ frozen, z~ linear
    m = tb.toroidal_model(1e-2, a0=1.0, a1=0.0, a2=0.0, c=0.0)
    cfg = tb.DriftConfig(epsilon=1e-2, mu0=0.0, dtau=1e-4)
    s0 = DriftState(r_t=0.9, z_t=-0.3, v_t=0.4)
    traj = tb.drift_integrate(s0, m, cfg, 50.0, sample_times=np.linspace(0.0, 50.0, 11))
    np.testing.assert_allclose(traj.r, 0.9, rtol=0, atol=1e-14)
    np.testing.assert_allclose(traj.vpar, 0.4, rtol=0, atol=1e-14)
    slope = 1e-2 * 0.4**2 / 0.9
    np.testing.assert_allclose(traj.z, -0.3 + slope * traj.t, rtol=1e-12)


def test_rv_invariant_conserved(model_1e3, mu0_1e3):
    cfg = tb.DriftConfig(epsilon=1e-3, mu0=mu0_1e3, dtau=1e-4)
    s0 = tb.drift_init(X0, V0, model_1e3)
    traj = tb.drift_integrate(
        s0, model_1e3, cfg, 1000.0, sample_times=np.linspace(0.0, 1000.0, 101)
    )
    rv = traj.rv_invariant
    assert np.max(np.abs(rv - rv[0])) <= 1e-9 * abs(rv[0])


def test_step_halving_insensitivity(model_1e3, mu0_1e3):
    s0 = tb.drift_init(X0, V0, model_1e3)
    ends = []
    for dtau in (1e-4, 5e-5):
        cfg = tb.DriftConfig(epsilon=1e-3, mu0=mu0_1e3, dtau=dtau)
        tr = tb.drift_integrate(s0, model_1e3, cfg, 500.0, sample_times=[0.0, 500.0])
        ends.append(np.array([tr.r[-1], tr.z[-1], tr.vpar[-1]]))
    assert np.max(np.abs(ends[0] - ends[1])) <= 1e-12


def test_rk4_order():
    m = tb.toroidal_model(1e-3)
    mu0 = tb.magnetic_moment(X0, V0, m)
    s0 = tb.drift_init(X0, V0, m)
    ends = []
    for dtau in (1e-2, 5e-3, 2.5e-3):
        cfg = tb.DriftConfig(epsilon=1e-3, mu0=mu0, dtau=dtau)
        tr = tb.drift_integrate(s0, m, cfg, 500.0, sample_times=[0.0, 500.0])
        ends.append(np.array([tr.r[-1], tr.z[-1], tr.vpar[-1]]))
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    # fourth order: halving the step shrinks the defect by ~16, within factor 3
    assert 16 / 3 <= e1 / e2 <= 16 * 3


def test_epsilon_invariance_in_slow_time():
    # dyadic epsilons and sample times so both runs hit identical tau grids
    muhat = 2847 / 2500
    runs = []
    for eps, t_scale in ((2.0**-7, 2.0**7), (2.0**-10, 2.0**10)):
        m = tb.toroidal_model(eps)
        cfg = tb.DriftConfig(epsilon=eps, mu0=muhat * eps, dtau=1e-4)
        s0 = tb.drift_init(X0, V0, m)
        times = np.arange(9) * (t_scale / 8.0)
        runs.append(tb.drift_integrate(s0, m, cfg, t_scale, sample_times=times))
    for attr in ("r", "z", "vpar"):
        a = getattr(runs[0], attr)
        b = getattr(runs[1], attr)
        assert np.max(np.abs(a - b)) <= 1e-14


def test_sign_symmetry(model_1e3, mu0_1e3):
    s0 = tb.drift_init(X0, V0, model_1e3)
    flipped = DriftState(r_t=s0.r_t, z_t=s0.z_t, v_t=-s0.v_t)
    cfg = tb.DriftConfig(epsilon=1e-3, mu0=mu0_1e3, dtau=1e-4)
    times = np.linspace(0.0, 500.0, 6)
    a = tb.drift_integrate(s0, model_1e3, cfg, 500.0, sample_times=times)
    b = tb.drift_integrate(flipped, model_1e3, cfg, 500.0, sample_times=times)
    np.testing.assert_array_equal(a.r, b.r)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.vpar, -b.vpar)


def test_drift_integrate_validates_epsilon(model_1e3, mu0_1e3):
    cfg = tb.DriftConfig(epsilon=1e-2, mu0=mu0_1e3)
    with pytest.raises(ValueError):
        tb.drift_integrate(DriftState(0.5, 0.0, 0.1), model_1e3, cfg, 1.0)


def test_drift_config_validation():
    with pytest.raises(ValueError):
        tb.DriftConfig(epsilon=1e-3, mu0=0.0, dtau=0.1)
    with pytest.raises(ValueError):
        tb.DriftConfig(epsilon=1e-3, mu0=-1e-3)


def test_default_sampling_lands_on_t_final(model_1e3, mu0_1e3):
    cfg = tb.DriftConfig(epsilon=1e-3, mu0=mu0_1e3, dt_out=7.0)
    s0 = tb.drift_init(X0, V0, model_1e3)
    tr = tb.drift_integrate(s0, model_1e3, cfg, 100.0)
    assert tr.t[0] == 0.0
    assert tr.t[-1] == 100.0
    assert np.all(np.diff(tr.t) > 0)


def test_budget_fires_before_running(model_1e3, mu0_1e3):
    s0 = tb.drift_init(X0, V0, model_1e3)
    # 10 * 1e-3 / 1e-4 = 100 RK4 steps, one per output interval of 0.1: at the
    # budget it runs, below it it is refused
    cfg = tb.DriftConfig(epsilon=1e-3, mu0=mu0_1e3, dt_out=0.1, budget_steps=100)
    assert len(tb.drift_integrate(s0, model_1e3, cfg, 10.0)) == 101
    with pytest.raises(BudgetExceeded):
        tb.drift_integrate(s0, model_1e3, dataclasses.replace(cfg, budget_steps=99), 10.0)
    # tau + dtau == tau once tau > 1e-284: this loop used to never finish
    with pytest.raises(BudgetExceeded):
        tb.drift_integrate(s0, model_1e3, tb.DriftConfig(1e-3, mu0_1e3, dtau=1e-300), 10.0)
    # every output interval takes a step, so 1e301 intervals are over budget too
    with pytest.raises(BudgetExceeded):
        tb.drift_integrate(s0, model_1e3, tb.DriftConfig(1e-3, mu0_1e3, dt_out=1e-300), 10.0)


# ---------------------------------------------------------------------------
# guiding center


def test_guiding_center_parallel_velocity(model_1e3):
    fr = tb.frame(X0)
    v = 0.7 * fr.e_par
    gc = tb.guiding_center(X0, v, model_1e3)
    np.testing.assert_allclose(gc, X0, rtol=0, atol=1e-15)


def test_guiding_center_uniform_field():
    eps = 1e-3
    m = tb.UniformFieldModel(B0=(0.0, 0.0, 1.0 / eps))
    gc = tb.guiding_center((0.0, 0.0, 0.0), (2.0, 0.0, 3.0), m)
    np.testing.assert_allclose(gc, [0.0, -eps * 2.0, 0.0], rtol=0, atol=1e-18)


def test_guiding_center_benchmark(model_1e3):
    gc = tb.guiding_center(X0, V0, model_1e3)
    want = [
        float(F(1, 3) + F(-12, 10) * F(1, 1000)),
        float(F(1, 4) + F(-9, 10) * F(1, 1000)),
        float(F(1, 2) + F(108, 100) * F(1, 1000)),
    ]
    np.testing.assert_allclose(gc, want, rtol=1e-12)
