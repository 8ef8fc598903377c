"""Experiment specs, error series, convergence fits and scaling suites."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toroboris as tb
from toroboris import harness
from toroboris.boris import _whole_steps
from toroboris.drift import DriftState, DriftTrajectory
from toroboris.errors import BudgetExceeded, GridMismatch
from toroboris.harness import _ORDER_BAND, _convergence_report, _respec

from conftest import X0, V0


def make_spec(eps=1e-3, h=0.04, t_final=None, c=0.5, **kw):
    t_final = c / eps if t_final is None else t_final
    return tb.ExperimentSpec(
        field=tb.ToroidalFieldModel(eps), x0=X0, v0=V0, h=h, t_final=t_final, c=c, **kw
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
    # 0.05 of a step of 1e-6, at 1e8 and 2e8 steps: a tolerance of 1e-9 max(1, t)
    # in time is 0.1 of a step here, so both used to build and drop the fraction
    with pytest.raises(ValueError, match=r"t_final=100.00000005 must be a multiple \(>= 2\)"):
        make_spec(h=1e-6, t_final=100.00000005, c=1.0)
    with pytest.raises(ValueError, match="output stride 100.00000005 must be a whole number"):
        make_spec(h=1e-6, t_final=200.0, c=1.0, dt_out=100.00000005)
    spec = make_spec(h=1e-6, t_final=200.0, c=1.0, dt_out=100.0)
    assert (spec.steps, spec.sample_stride) == (200_000_000, 100_000_000)


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


def test_spec_prime_step_count_aligns_quickly():
    # n = 9999991 is prime: the default stride's search counted down from 5e5 to 1
    t0 = time.perf_counter()
    spec = make_spec(eps=1e-2, h=1e-6, t_final=9999991 * 1e-6)
    assert time.perf_counter() - t0 < 0.05
    assert spec.sample_stride == 1
    assert spec.dt_out == 1e-6
    # an explicit stride of 5e6 steps divides nothing and is refused, not rounded to h
    with pytest.raises(ValueError, match="output stride 5.0 must be a whole number of steps"):
        make_spec(eps=1e-2, h=1e-6, t_final=9999991 * 1e-6, dt_out=5.0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 4000), k=st.integers(1, 8000))
@example(n=12, k=8)
@example(n=7, k=7)
def test_spec_stride_is_the_largest_divisor_not_above_the_request(n, k):
    # the default asks for round(0.5 / h) = k steps
    h = 0.5 / k
    spec = make_spec(h=h, t_final=n * h, c=3.0)
    want = min(k, n)
    while n % want:  # the one-at-a-time search the divisor pairs replace
        want -= 1
    assert (spec.steps, spec.sample_stride) == (n, want)
    assert spec.dt_out == want * h
    assert spec.sample_times.tolist() == [i * h for i in range(0, n + 1, want)]
    # the reference covers the same samples, reference_stride steps each
    assert spec.reference_steps == n // want * spec.reference_stride
    if spec.reference_steps <= 20_000:  # n <= 2k: the runs stay short
        assert tb.run_trajectory(spec).steps_completed == n
        assert tb.run_reference(spec).steps_completed == spec.reference_steps
    # an explicit stride of k steps is run as asked when it divides n, refused otherwise
    if n % k:
        with pytest.raises(ValueError, match="must be a whole number of steps"):
            make_spec(h=h, t_final=n * h, c=3.0, dt_out=k * h)
    else:
        explicit = make_spec(h=h, t_final=n * h, c=3.0, dt_out=k * h)
        assert (explicit.steps, explicit.sample_stride) == (n, k)


@pytest.mark.parametrize("eps, c", [(1e-2, 0.5), (1e-3, 0.5), (1.6e-4, 0.128), (1e-4, 0.1),
                                    (2.5e-4, 1.0)])
def test_derived_horizons_keep_their_step_count(eps, c):
    # theorem1's chain, c / eps in steps of 0.05 eps and then of h_ref, up to
    # 20 c / eps^2 = 3.2e8 steps, and the reference's steps * h_ref
    spec = make_spec(eps=eps, h=0.05 * eps, c=c, variant="standard")
    assert spec.steps == round(20 * c / eps**2)
    fine = dataclasses.replace(spec, h=spec.h_ref)
    assert fine.steps == spec.reference_steps
    assert _whole_steps(spec.reference_steps * spec.h_ref, spec.h_ref) == spec.reference_steps
    # a study's points: c / eps in steps of h, on the base grid
    base = make_spec(eps=1e-3, h=0.04)
    for eps_i, h_i in ((2.5e-4, 0.02), (1e-5, 0.004)):
        point = _respec(base, eps_i, h_i)
        assert (point.steps, point.sample_stride) == (round(base.c / eps_i / h_i), round(0.4 / h_i))


def test_sample_times_are_the_times_the_run_writes():
    spec = make_spec(eps=1e-2, h=0.05, t_final=21.0, dt_out=0.35)
    assert spec.sample_stride == 7 and len(spec.sample_times) == 61
    np.testing.assert_array_equal(spec.sample_times, tb.run_trajectory(spec).t)


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
    base = make_spec(eps=1e-3, h=0.04, dt_out=0.4, ref_h_factor=0.1)
    spec = _respec(base, 2.5e-4, 0.02)
    assert (spec.epsilon, spec.h, spec.t_final) == (2.5e-4, 0.02, base.c / 2.5e-4)
    assert spec.field == dataclasses.replace(base.field, epsilon=2.5e-4)
    kept = ("x0", "v0", "dt_out", "ref_h_factor", "c", "budget_steps", "dtau")
    assert all(getattr(spec, name) == getattr(base, name) for name in kept)


def test_reference_runs_the_step_count_of_its_spec():
    # 0.9e-9 of a step past 200 steps of 0.05 is 200 steps, but t_final is then
    # 9e-8 of a step past 20000 reference steps of 5e-4, which integrate refuses
    spec = make_spec(eps=1e-2, h=0.05, t_final=10 + 0.9e-9 * 0.05)
    assert (spec.steps, spec.reference_steps) == (200, 20000)
    assert tb.run_reference(spec).steps_completed == 20000


def test_reference_completes_at_moderate_scale():
    spec = make_spec(eps=1e-2, h=0.05)
    ref = tb.run_reference(spec)
    assert ref.error is None
    assert ref.steps_completed == 100000
    assert ref.t[-1] == pytest.approx(50.0, abs=1e-9)


def test_reference_filtered_flag(model_1e3):
    spec = make_spec(eps=1e-2, h=0.05, t_final=0.1, ref_filtered_init=True)
    ref = tb.run_reference(spec)
    assert ref.error is None
    fr = tb.frame(X0)
    assert abs(float(fr.e_r @ ref.v[0])) <= 1e-15


def test_spec_rejects_an_unknown_variant():
    # run_drift used to run such a spec; only run_trajectory refused it
    with pytest.raises(ValueError) as spec_error:
        make_spec(eps=1e-2, h=0.05, t_final=0.1, variant="boris")
    with pytest.raises(ValueError) as config_error:
        tb.PusherConfig(h=0.05, variant="boris")
    assert str(spec_error.value) == str(config_error.value)
    assert "variant must be one of ('standard', 'modified'), got 'boris'" in str(spec_error.value)


def test_spec_rejects_a_horizon_below_two_steps():
    for t_final in (0.0, 0.05):
        with pytest.raises(ValueError, match=r"multiple \(>= 2\)"):
            make_spec(eps=1e-2, h=0.05, t_final=t_final)


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
        field=model_1e3,
        steps_completed=0,
    )
    obs = tb.observables(traj)
    assert obs.vpar[0] == 0.0
    assert obs.mu[0] == 0.0


def test_observables_field_line_motion_constant():
    m = tb.ToroidalFieldModel(1e-9, a0=1.0, a1=0.0, a2=0.0, c=0.0)
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
    assert err.max_by_component() == {"r": 0.0, "z": 0.0, "vpar": 0.0}


def test_error_injected_offset_is_exact():
    t = np.linspace(0, 10, 21)
    a = synth_obs(t, 0.4 + 1e-3, 0.5, 0.3)
    err = tb.error_vs_reference(a, synth_obs(t, 0.4, 0.5, 0.3))
    assert err.max_by_component()["r"] == pytest.approx(1e-3, abs=1e-18)
    assert err.max_by_component()["z"] == 0.0


def test_error_against_drift_series():
    t = np.linspace(0, 10, 11)
    obs = synth_obs(t, 0.4, 0.5, 0.3)
    dr = DriftTrajectory(
        t=t.copy(),
        r=np.full(11, 0.4),
        z=np.full(11, 0.7),
        vpar=np.full(11, 0.3),
        epsilon=1e-3,
    )
    err = tb.error_vs_drift(obs, dr)
    assert err.max_by_component()["z"] == pytest.approx(0.2, rel=1e-15)
    assert err.max_by_component()["r"] == 0.0


def test_grid_mismatch_raises():
    a = synth_obs(np.linspace(0, 10, 11), 0.4, 0.5, 0.3)
    b = synth_obs(np.linspace(0, 10, 11) + 1e-6, 0.4, 0.5, 0.3)
    with pytest.raises(GridMismatch):
        tb.error_vs_reference(a, b)
    with pytest.raises(GridMismatch):
        tb.error_vs_reference(a, synth_obs(np.linspace(0, 10, 12), 0.4, 0.5, 0.3))
    # a NaN time is no match either (NaN > 1e-12 is false)
    t_nan = np.linspace(0, 10, 11)
    t_nan[3] = np.nan
    with pytest.raises(GridMismatch):
        tb.error_vs_drift(a, synth_obs(t_nan, 0.4, 0.5, 0.3))


def test_reference_subset_on_shared_points():
    t = np.linspace(0, 10, 21)
    a = synth_obs(t, 0.4, 0.5, 0.3)
    coarse = synth_obs(t[::2], 0.4, 0.5, 0.3)
    sub = tb.ObservableSeries(
        t=a.t[::2], r=a.r[::2], z=a.z[::2], vpar=a.vpar[::2], mu=a.mu[::2], energy=a.energy[::2]
    )
    err = tb.error_vs_reference(sub, coarse)
    assert err.max_by_component() == {"r": 0.0, "z": 0.0, "vpar": 0.0}


# ---------------------------------------------------------------------------
# slope fitting and the order gate


def test_slope_fit_exact_power_law():
    hs = [0.04, 0.02, 0.01]
    errs = [3.0 * h**2 for h in hs]
    assert tb.fit_loglog_slope(hs, errs) == pytest.approx(2.0, abs=1e-12)


def test_order_gate_rejects_first_order_method():
    # forward-Euler on the slow system: a genuine first-order control
    m = tb.ToroidalFieldModel(1e-3)
    mu0 = tb.magnetic_moment(X0, V0, m)
    s0 = tb.drift_init(X0, V0, m)
    cfg = tb.DriftConfig(mu0=mu0, dtau=1e-4)
    truth = tb.drift_integrate(s0, m, cfg, [0.0, 500.0])
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
        max_err = {"r": err[0], "z": err[1], "vpar": err[2]}
        points.append({"h": dtau, "epsilon": 1e-3, "max_err": max_err})
    report = _convergence_report("scaled_pairs", points, _ORDER_BAND)
    assert not report["passed"]
    for slope in report["slopes"].values():
        assert slope == pytest.approx(1.0, abs=0.2)


def test_order_gate_zero_error_diagnostic():
    points = [
        {"h": 0.04, "epsilon": 1e-3, "max_err": {"r": 0.0, "z": 1e-3, "vpar": 1e-3}},
        {"h": 0.02, "epsilon": 2.5e-4, "max_err": {"r": 0.0, "z": 2.5e-4, "vpar": 2.5e-4}},
    ]
    report = _convergence_report("scaled_pairs", points, _ORDER_BAND)
    assert not report["passed"]
    assert report["slopes"]["r"] is None
    assert any("zero max error" in d for d in report["diagnostics"])


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
    report, series = tb.convergence_study(base, "fixed_eps", h_list=[0.08, 0.04])
    errs = [p["max_err"]["z"] for p in report["points"]]
    assert errs[0] > errs[1]
    assert all(e < 0.2 for e in errs)
    assert report["points"][0]["steps"] == 625
    assert [err.max_by_component()["z"] for err in series] == errs


def test_a_fixed_eps_study_runs_its_reference_once(monkeypatch):
    # one main run per step and one reference for all of them: the reference used
    # to run once per step, 2 len(h_list) integrate calls in all
    calls = []
    integrate = harness.integrate

    def recorded(x0, v0, model, config, t_final, sample_every):
        calls.append((config.h, config.variant))
        return integrate(x0, v0, model, config, t_final, sample_every)

    monkeypatch.setattr(harness, "integrate", recorded)
    base = make_spec(eps=1e-2, h=0.08, dt_out=0.4, c=0.1)
    h_list = [0.08, 0.04, 0.02]
    report, series = tb.convergence_study(base, "fixed_eps", h_list=h_list)
    assert calls == [(0.08, "modified"), (base.h_ref, "standard"), (0.04, "modified"),
                     (0.02, "modified")]
    # the same bits as one compare per step
    points, expected = [], []
    for h in h_list:
        run, err = tb.compare(_respec(base, base.epsilon, h), "reference")
        sigma_min, warnings = tb.monitor_nondegeneracy(run)
        points.append({"h": h, "epsilon": base.epsilon, "max_err": err.max_by_component(),
                       "steps": run.steps_completed, "sigma_min": sigma_min,
                       "warnings": len(warnings)})
        expected.append(err)
    assert report == _convergence_report("fixed_eps", points, _ORDER_BAND)
    for got, want in zip(series, expected, strict=True):
        for name in ("t", "err_r", "err_z", "err_vpar"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_theorem1_field_line_oracle():
    # constant-magnitude profile, no electric field, start along the field:
    # the slow system freezes r and v and drifts z linearly; the fine
    # reference shows the same motion up to the gyro-scale remainder
    model = tb.ToroidalFieldModel(0.5, a0=1.0, a1=0.0, a2=0.0, c=0.0)
    fr = tb.frame(X0)
    rep, _ = tb.theorem1_suite(model, [1e-2], 0.5, X0, tuple((22 / 75) * fr.e_par))
    for comp, val in rep["max_err"][0].items():
        assert val <= 2e-4, (comp, val)


def test_compare_rejects_an_unknown_comparator():
    with pytest.raises(ValueError, match="against"):
        tb.compare(make_spec(eps=1e-2, h=0.05, t_final=0.1), "drfit")


def test_theorem1_runs_only_the_fine_reference(monkeypatch):
    # one pusher run per epsilon, standard Boris at the reference step; none
    # at the spec's nominal step 0.05 eps
    calls = []
    integrate = harness.integrate

    def recorded(x0, v0, model, config, t_final, sample_every):
        calls.append((config.h, config.variant, config.mu0, sample_every))
        return integrate(x0, v0, model, config, t_final, sample_every)

    monkeypatch.setattr(harness, "integrate", recorded)
    eps_list = [1e-2, 5e-3]
    # 0.25 is 500 and 1000 steps of 0.05 eps (0.3, which divides neither run, was
    # rounded to it)
    rep, _ = tb.theorem1_suite(tb.ToroidalFieldModel(1.0), eps_list, 0.1, X0, V0, dt_out=0.25)
    specs = [make_spec(eps=eps, h=0.05 * eps, c=0.1, variant="standard", dt_out=0.25)
             for eps in eps_list]
    assert calls == [(s.h_ref, "standard", 0.0, round(s.dt_out / s.h_ref)) for s in specs]
    assert rep["steps"] == [s.reference_steps for s in specs]


def test_theorem1_empty_list_rejected():
    with pytest.raises(ValueError):
        tb.theorem1_suite(tb.ToroidalFieldModel(1e-3), [], 0.5, X0, V0)


def test_theorem1_budget_propagates():
    with pytest.raises(BudgetExceeded):
        tb.theorem1_suite(tb.ToroidalFieldModel(1e-3), [1e-3], 0.5, X0, V0, budget_steps=1000)


@pytest.mark.parametrize("study, bounds", [
    (lambda: tb.compare(make_spec(eps=1e-2, h=0.05, t_final=1.0), "drift"), 1),
    (lambda: tb.convergence_study(make_spec(eps=1e-2, h=0.1, c=0.05), "scaled_pairs",
                                  pairs=[(1e-2, 0.1), (2.5e-3, 0.05)]), 2),
    (lambda: tb.theorem1_suite(tb.ToroidalFieldModel(1.0), [1e-2, 5e-3], 0.01, X0, V0), 2),
], ids=["compare-drift", "scaled-pairs", "theorem1"])
def test_the_rk4_bound_is_computed_once_per_spec(monkeypatch, study, bounds):
    # one count of the RK4 steps per run against the drift: the bound it replaced
    # used to be recomputed at every budget check, 2, 6 and 6 times here
    calls = []
    count = harness._rk4_counts
    monkeypatch.setattr(harness, "_rk4_counts", lambda *a: calls.append(a) or count(*a))
    study()
    assert len(calls) == bounds


@pytest.mark.parametrize("against, runs", [("drift", 1), ("reference", 2)])
def test_one_compare_computes_mu0_once_and_evaluates_x0_once_per_run(monkeypatch, against,
                                                                      runs):
    # compare used to compute every observable of both series, and mu0 at every
    # reader; initialize evaluated the field at x0 once to filter and once to start
    moments, observed = [], []
    moment, observables, integrate = harness.magnetic_moment, harness.observables, harness.integrate
    monkeypatch.setattr(harness, "magnetic_moment", lambda *a: moments.append(a) or moment(*a))
    monkeypatch.setattr(harness, "observables", lambda *a: observed.append(a) or observables(*a))
    evaluations = []  # field evaluations inside each integrate call, in call order
    running = [False]

    def counted(*a, **k):
        evaluations.append(0)
        running[0] = True
        try:
            return integrate(*a, **k)
        finally:
            running[0] = False

    monkeypatch.setattr(harness, "integrate", counted)
    for name in ("sample", "strength"):
        def count(self, x, method=getattr(tb.ToroidalFieldModel, name)):
            if running[0]:
                evaluations[-1] += 1
            return method(self, x)

        monkeypatch.setattr(tb.ToroidalFieldModel, name, count)
    tb.compare(make_spec(eps=1e-2, h=0.05, t_final=2.0), against)
    assert len(moments) == 1 and observed == []
    assert evaluations == [1] * runs


def test_a_study_computes_mu0_once_per_spec(monkeypatch):
    calls = []
    moment = harness.magnetic_moment
    monkeypatch.setattr(harness, "magnetic_moment", lambda *a: calls.append(a) or moment(*a))
    tb.convergence_study(make_spec(eps=1e-2, h=0.1, c=0.05), "scaled_pairs",
                         pairs=[(1e-2, 0.1), (2.5e-3, 0.05)])
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# determinism


def test_runs_are_deterministic():
    spec = make_spec(eps=1e-2, h=0.05, t_final=20.0)
    a = tb.run_trajectory(spec)
    b = tb.run_trajectory(spec)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.v, b.v)
    da = tb.run_drift(spec)
    db = tb.run_drift(spec)
    np.testing.assert_array_equal(da.r, db.r)
    np.testing.assert_array_equal(da.vpar, db.vpar)
