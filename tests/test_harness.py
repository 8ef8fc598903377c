"""Experiment specs, error series, convergence fits and scaling suites."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

import toroboris as tb
from toroboris.drift import DriftState, DriftTrajectory
from toroboris.errors import BudgetExceeded, GridMismatch
from toroboris.harness import ConvergencePoint, _respec

from conftest import X0, V0


def make_spec(eps=1e-3, h=0.04, t_final=None, c=0.5, **kw):
    t_final = c / eps if t_final is None else t_final
    return tb.ExperimentSpec(
        field=tb.toroidal_model(eps), x0=X0, v0=V0, h=h, t_final=t_final, c=c, **kw
    )


# ---------------------------------------------------------------------------
# spec validation and derived quantities


def test_spec_aligns_output_stride():
    spec = make_spec()
    # default stride 0.5 is rounded to a multiple of h that divides t_final
    assert spec.dt_out == pytest.approx(0.4, rel=1e-15)
    assert spec.sample_stride == 10
    assert round(spec.t_final / spec.dt_out) * spec.dt_out == pytest.approx(500.0)


def test_spec_reference_step_divides_stride():
    spec = make_spec(eps=1e-2, h=0.05, dt_out=0.5)
    assert spec.h_ref == pytest.approx(5e-4, rel=1e-12)
    k = spec.dt_out / spec.h_ref
    assert abs(k - round(k)) < 1e-9
    assert spec.reference_steps == 100000


def test_spec_rejects_horizon_violation():
    with pytest.raises(ValueError):
        make_spec(eps=1e-3, t_final=600.0, c=0.5)


def test_spec_rejects_non_multiple_t_final():
    with pytest.raises(ValueError):
        make_spec(t_final=500.013)


def test_budget_check_fires_before_running():
    spec = make_spec(eps=1e-4, h=0.01, c=1.0)
    assert spec.reference_steps == pytest.approx(2e9, rel=1e-6)
    with pytest.raises(BudgetExceeded):
        tb.run_reference(spec)


def test_spec_tiny_step_aligns_without_counting_down():
    # the stride search started at round(0.5 / h) = 5e8 and counted down to n = 8e7
    t0 = time.perf_counter()
    spec = make_spec(eps=1e-2, h=1e-9, t_final=0.08)
    assert time.perf_counter() - t0 < 0.5
    assert spec.sample_stride == 80_000_000
    assert spec.dt_out == 80_000_000 * 1e-9


def test_run_trajectory_respects_budget():
    # 1000 pusher steps: refused below the budget (it used to run), run at it
    with pytest.raises(BudgetExceeded):
        tb.run_trajectory(make_spec(eps=1e-2, h=0.05, t_final=50.0, budget_steps=999))
    spec = make_spec(eps=1e-2, h=0.05, t_final=50.0, budget_steps=1000)
    assert tb.run_trajectory(spec).steps_completed == 1000
    # a subnormal step overflowed round() instead
    with pytest.raises(BudgetExceeded):
        make_spec(eps=1e-2, h=5e-324, t_final=50.0)


def test_respec_changes_only_epsilon_step_and_horizon():
    base = make_spec(eps=1e-3, h=0.04, dt_out=0.4, sigma_stride=5, ref_h_factor=0.1)
    spec = _respec(base, 2.5e-4, 0.02)
    assert (spec.epsilon, spec.h, spec.t_final) == (2.5e-4, 0.02, base.c / 2.5e-4)
    assert spec.field == dataclasses.replace(base.field, epsilon=2.5e-4)
    kept = ("x0", "v0", "dt_out", "ref_h_factor", "c", "budget_steps", "dtau", "sigma_stride")
    assert all(getattr(spec, name) == getattr(base, name) for name in kept)
    generic = dataclasses.replace(base, field=dataclasses.replace(base.field, poly=None))
    with pytest.raises(ValueError, match="closed-form"):
        _respec(generic, 2.5e-4, 0.02)


def test_reference_completes_at_moderate_scale():
    spec = make_spec(eps=1e-2, h=0.05)
    ref = tb.run_reference(spec)
    assert ref.error is None
    assert ref.steps_completed == 100000
    assert ref.t[-1] == pytest.approx(50.0, abs=1e-9)


def test_reference_zero_horizon_single_sample():
    spec = make_spec(t_final=0.0)
    ref = tb.run_reference(spec)
    assert len(ref) == 1
    assert ref.t[0] == 0.0
    np.testing.assert_allclose(ref.x[0], X0, rtol=0, atol=0)


def test_reference_filtered_flag(model_1e3):
    spec = make_spec(eps=1e-2, h=0.05, t_final=0.0, ref_filtered_init=True)
    ref = tb.run_reference(spec)
    fr = tb.frame(X0)
    assert abs(float(fr.e_r @ ref.v[0])) <= 1e-15


# ---------------------------------------------------------------------------
# observables


def test_observables_benchmark_first_sample(model_1e3):
    spec = make_spec(eps=1e-2, h=0.05, t_final=10.0, variant="standard")
    obs = tb.observables(tb.run_trajectory(spec))
    assert obs.r[0] == pytest.approx(5 / 12, abs=1e-15)
    assert obs.z[0] == 0.5
    assert obs.vpar[0] == pytest.approx(22 / 75, abs=1e-15)
    assert obs.energy[0] == pytest.approx(
        0.5 * (0.4**2 + (2 / 3) ** 2 + 1.0) - 0.1 * (5 / 12) * 0.5, rel=1e-12
    )


def test_observables_zero_velocity_state(model_1e3):
    traj = tb.Trajectory(
        t=np.array([0.0]),
        x=np.asarray(X0).reshape(1, 3),
        v=np.zeros((1, 3)),
        h=0.1,
        variant="standard",
        mu0=0.0,
        field=model_1e3,
        steps_completed=0,
    )
    obs = tb.observables(traj)
    assert obs.vpar[0] == 0.0
    assert obs.mu[0] == 0.0


def test_observables_field_line_motion_constant():
    m = tb.toroidal_model(1e-9, a0=1.0, a1=0.0, a2=0.0, c=0.0)
    fr = tb.frame(X0)
    cfg = tb.PusherConfig(h=1e-5, variant="modified", mu0=0.0)
    traj = tb.integrate(X0, (22 / 75) * fr.e_par, m, cfg, 0.1, sample_every=100)
    obs = tb.observables(traj)
    assert np.max(np.abs(obs.r - obs.r[0])) <= 1e-10
    assert np.max(np.abs(obs.z - obs.z[0])) <= 1e-10
    assert np.max(np.abs(obs.vpar - obs.vpar[0])) <= 1e-10


# ---------------------------------------------------------------------------
# error series


def synth_obs(times, r, z, vpar):
    n = len(times)
    return tb.ObservableSeries(
        t=np.asarray(times, float),
        r=np.full(n, r),
        z=np.full(n, z),
        vpar=np.full(n, vpar),
        mu=np.zeros(n),
        energy=np.zeros(n),
    )


def test_error_identical_series_is_zero():
    t = np.linspace(0, 10, 21)
    a = synth_obs(t, 0.4, 0.5, 0.3)
    err = tb.error_vs_reference(a, synth_obs(t, 0.4, 0.5, 0.3))
    assert err.max_r == 0.0 and err.max_z == 0.0 and err.max_vpar == 0.0


def test_error_injected_offset_is_exact():
    t = np.linspace(0, 10, 21)
    a = synth_obs(t, 0.4 + 1e-3, 0.5, 0.3)
    err = tb.error_vs_reference(a, synth_obs(t, 0.4, 0.5, 0.3))
    assert err.max_r == pytest.approx(1e-3, abs=1e-18)
    assert err.max_z == 0.0


def test_error_against_drift_series():
    t = np.linspace(0, 10, 11)
    obs = synth_obs(t, 0.4, 0.5, 0.3)
    dr = DriftTrajectory(
        t=t.copy(),
        r=np.full(11, 0.4),
        z=np.full(11, 0.7),
        vpar=np.full(11, 0.3),
        epsilon=1e-3,
        mu0=0.0,
    )
    err = tb.error_vs_drift(obs, dr)
    assert err.max_z == pytest.approx(0.2, rel=1e-15)
    assert err.max_r == 0.0


def test_grid_mismatch_raises():
    a = synth_obs(np.linspace(0, 10, 11), 0.4, 0.5, 0.3)
    b = synth_obs(np.linspace(0, 10, 11) + 1e-6, 0.4, 0.5, 0.3)
    with pytest.raises(GridMismatch):
        tb.error_vs_reference(a, b)
    with pytest.raises(GridMismatch):
        tb.error_vs_reference(a, synth_obs(np.linspace(0, 10, 12), 0.4, 0.5, 0.3))


def test_reference_subset_on_shared_points():
    t = np.linspace(0, 10, 21)
    a = synth_obs(t, 0.4, 0.5, 0.3)
    coarse = synth_obs(t[::2], 0.4, 0.5, 0.3)
    sub = tb.ObservableSeries(
        t=a.t[::2], r=a.r[::2], z=a.z[::2], vpar=a.vpar[::2], mu=a.mu[::2], energy=a.energy[::2]
    )
    err = tb.error_vs_reference(sub, coarse)
    assert err.max_r == 0.0 and err.max_z == 0.0 and err.max_vpar == 0.0


# ---------------------------------------------------------------------------
# slope fitting and the order gate


def test_slope_fit_exact_power_law():
    hs = [0.04, 0.02, 0.01]
    errs = [3.0 * h**2 for h in hs]
    assert tb.fit_loglog_slope(hs, errs) == pytest.approx(2.0, abs=1e-12)


def test_order_gate_rejects_first_order_method():
    # forward-Euler on the slow system: a genuine first-order control
    m = tb.toroidal_model(1e-3)
    mu0 = tb.magnetic_moment(X0, V0, m)
    s0 = tb.drift_init(X0, V0, m)
    cfg = tb.DriftConfig(epsilon=1e-3, mu0=mu0, dtau=1e-4)
    truth = tb.drift_integrate(s0, m, cfg, 500.0, sample_times=[0.0, 500.0])
    end_true = np.array([truth.r[-1], truth.z[-1], truth.vpar[-1]])

    def euler_end(dtau):
        y = np.array([s0.r_t, s0.z_t, s0.v_t])
        tau = 0.0
        while tau < 0.5 - 1e-12:
            step = min(dtau, 0.5 - tau)
            y = y + step * np.array(tb.drift_rhs(DriftState(*y), m, mu0))
            tau += step
        return y

    points = []
    for dtau in (2e-3, 1e-3):
        end = euler_end(dtau)
        err = np.abs(end - end_true)
        points.append(
            ConvergencePoint(
                h=dtau, epsilon=1e-3, max_err={"r": err[0], "z": err[1], "vpar": err[2]}
            )
        )
    report = tb.build_convergence_report("scaled_pairs", points)
    assert not report.passed
    for slope in report.slopes.values():
        assert slope == pytest.approx(1.0, abs=0.2)


def test_order_gate_zero_error_diagnostic():
    points = [
        ConvergencePoint(h=0.04, epsilon=1e-3, max_err={"r": 0.0, "z": 1e-3, "vpar": 1e-3}),
        ConvergencePoint(h=0.02, epsilon=2.5e-4, max_err={"r": 0.0, "z": 2.5e-4, "vpar": 2.5e-4}),
    ]
    report = tb.build_convergence_report("scaled_pairs", points)
    assert not report.passed
    assert report.slopes["r"] is None
    assert any("zero max error" in d for d in report.diagnostics)


def test_convergence_study_input_validation():
    base = make_spec()
    with pytest.raises(ValueError):
        tb.convergence_study(base, "scaled_pairs", pairs=[(1e-3, 0.04)])
    with pytest.raises(ValueError):
        tb.convergence_study(base, "scaled_pairs", pairs=[(1e-3, 0.04), (2.5e-4, 0.025)])
    with pytest.raises(ValueError):
        tb.convergence_study(base, "fixed_eps", h_list=[0.04])
    with pytest.raises(ValueError):
        tb.convergence_study(base, "no_such_mode")


def test_fixed_eps_mode_bounded_and_ordered():
    base = make_spec(eps=1e-2, h=0.08, dt_out=0.4)
    report = tb.convergence_study(base, "fixed_eps", h_list=[0.08, 0.04])
    errs = [p.max_err["z"] for p in report.points]
    assert errs[0] > errs[1]
    assert all(e < 0.2 for e in errs)
    assert report.points[0].steps == 625


def test_theorem1_field_line_oracle():
    # constant-magnitude profile, no electric field, start along the field:
    # the slow system freezes r and v and drifts z linearly; the fine
    # reference shows the same motion up to the gyro-scale remainder
    make_model = lambda e: tb.toroidal_model(e, a0=1.0, a1=0.0, a2=0.0, c=0.0)
    fr = tb.frame(X0)
    rep = tb.theorem1_suite(make_model, [1e-2], 0.5, X0, tuple((22 / 75) * fr.e_par))
    for comp, val in rep.max_err[0].items():
        assert val <= 2e-4, (comp, val)


def test_theorem1_empty_list_rejected():
    with pytest.raises(ValueError):
        tb.theorem1_suite(lambda e: tb.toroidal_model(e), [], 0.5, X0, V0)


def test_theorem1_budget_propagates():
    with pytest.raises(BudgetExceeded):
        tb.theorem1_suite(
            lambda e: tb.toroidal_model(e), [1e-3], 0.5, X0, V0, budget_steps=1000
        )


# ---------------------------------------------------------------------------
# determinism


def test_runs_are_deterministic():
    spec = make_spec(eps=1e-2, h=0.05, t_final=20.0)
    a = tb.run_trajectory(spec)
    b = tb.run_trajectory(spec)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.v, b.v)
    da = tb.run_drift(spec, sample_times=a.t)
    db = tb.run_drift(spec, sample_times=b.t)
    np.testing.assert_array_equal(da.r, db.r)
    np.testing.assert_array_equal(da.vpar, db.vpar)
