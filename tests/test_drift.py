"""Slow-system right-hand side, integrator and guiding-center diagnostics."""

from __future__ import annotations

import contextlib
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toroboris as tb
from toroboris import cli, drift
from toroboris.drift import DriftState
from toroboris.errors import AxisSingularity, DomainError

from conftest import X0, V0, python_backend


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
    m = tb.ToroidalFieldModel(1e-3, c=0.0)
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
    m = tb.ToroidalFieldModel(1e-3, a0=-0.5)  # b = r + z^2 - 0.5
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
    m = tb.ToroidalFieldModel(1e-2, a0=1.0, a1=0.0, a2=0.0, c=0.0)
    cfg = tb.DriftConfig(mu0=0.0, dtau=1e-4)
    s0 = DriftState(r_t=0.9, z_t=-0.3, v_t=0.4)
    traj = tb.drift_integrate(s0, m, cfg, np.linspace(0.0, 50.0, 11))
    np.testing.assert_allclose(traj.r, 0.9, rtol=0, atol=1e-14)
    np.testing.assert_allclose(traj.vpar, 0.4, rtol=0, atol=1e-14)
    slope = 1e-2 * 0.4**2 / 0.9
    np.testing.assert_allclose(traj.z, -0.3 + slope * traj.t, rtol=1e-12)


def test_rv_invariant_conserved(model_1e3, mu0_1e3):
    cfg = tb.DriftConfig(mu0=mu0_1e3, dtau=1e-4)
    s0 = tb.drift_init(X0, V0, model_1e3)
    traj = tb.drift_integrate(
        s0, model_1e3, cfg, np.linspace(0.0, 1000.0, 101)
    )
    rv = traj.rv_invariant
    assert np.max(np.abs(rv - rv[0])) <= 1e-9 * abs(rv[0])


def test_step_halving_insensitivity(model_1e3, mu0_1e3):
    s0 = tb.drift_init(X0, V0, model_1e3)
    ends = []
    for dtau in (1e-4, 5e-5):
        cfg = tb.DriftConfig(mu0=mu0_1e3, dtau=dtau)
        tr = tb.drift_integrate(s0, model_1e3, cfg, [0.0, 500.0])
        ends.append(np.array([tr.r[-1], tr.z[-1], tr.vpar[-1]]))
    assert np.max(np.abs(ends[0] - ends[1])) <= 1e-12


def test_rk4_order():
    m = tb.ToroidalFieldModel(1e-3)
    mu0 = tb.magnetic_moment(X0, V0, m)
    s0 = tb.drift_init(X0, V0, m)
    ends = []
    for dtau in (1e-2, 5e-3, 2.5e-3):
        cfg = tb.DriftConfig(mu0=mu0, dtau=dtau)
        tr = tb.drift_integrate(s0, m, cfg, [0.0, 500.0])
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
        m = tb.ToroidalFieldModel(eps)
        cfg = tb.DriftConfig(mu0=muhat * eps, dtau=1e-4)
        s0 = tb.drift_init(X0, V0, m)
        times = np.arange(9) * (t_scale / 8.0)
        runs.append(tb.drift_integrate(s0, m, cfg, times))
    for attr in ("r", "z", "vpar"):
        a = getattr(runs[0], attr)
        b = getattr(runs[1], attr)
        assert np.max(np.abs(a - b)) <= 1e-14


def test_sign_symmetry(model_1e3, mu0_1e3):
    s0 = tb.drift_init(X0, V0, model_1e3)
    flipped = DriftState(r_t=s0.r_t, z_t=s0.z_t, v_t=-s0.v_t)
    cfg = tb.DriftConfig(mu0=mu0_1e3, dtau=1e-4)
    times = np.linspace(0.0, 500.0, 6)
    a = tb.drift_integrate(s0, model_1e3, cfg, times)
    b = tb.drift_integrate(flipped, model_1e3, cfg, times)
    np.testing.assert_array_equal(a.r, b.r)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.vpar, -b.vpar)


def test_drift_config_validation():
    with pytest.raises(ValueError):
        tb.DriftConfig(mu0=0.0, dtau=0.1)
    with pytest.raises(ValueError):
        tb.DriftConfig(mu0=-1e-3)
    for mu0 in (float("nan"), float("inf")):  # "nan < 0" is false: this used to pass
        with pytest.raises(ValueError, match="mu0"):
            tb.DriftConfig(mu0=mu0)


@pytest.mark.parametrize(
    "times, match",
    [
        ([0.0, 5.0, 2.0, 10.0], "nondecreasing"),  # returned the t=5 state stamped t=2
        ([0.0, float("nan"), 10.0], "finite"),
        ([0.0, float("inf")], "finite"),
        ([], "nonempty"),
        ([[0.0, 1.0]], "1-D"),
    ],
)
def test_drift_integrate_rejects_bad_sample_times(model_1e3, mu0_1e3, times, match):
    cfg = tb.DriftConfig(mu0=mu0_1e3)
    s0 = tb.drift_init(X0, V0, model_1e3)
    with pytest.raises(ValueError, match=match):
        tb.drift_integrate(s0, model_1e3, cfg, times)


def test_drift_integrate_keeps_repeated_sample_times(model_1e3, mu0_1e3):
    cfg = tb.DriftConfig(mu0=mu0_1e3)
    s0 = tb.drift_init(X0, V0, model_1e3)
    tr = tb.drift_integrate(s0, model_1e3, cfg, [0.0, 5.0, 5.0, 10.0])
    assert (tr.r[1], tr.z[1], tr.vpar[1]) == (tr.r[2], tr.z[2], tr.vpar[2])


def test_drift_integrate_rejects_a_step_below_the_resolution_of_tau(model_1e3, mu0_1e3):
    # within the budget, but tau + dtau == tau at tau = 1e17: the loop never ended
    cfg = tb.DriftConfig(mu0=mu0_1e3, dtau=1e-4)
    s0 = tb.drift_init(X0, V0, model_1e3)
    with pytest.raises(ValueError, match="resolution"):
        tb.drift_integrate(s0, model_1e3, cfg, [1e20, 1e20 + 1e5])


# At tau = 1e6 a step of 1.5 ulps advances tau by 2 ulps: 750 of the 1000 steps
# reach the sample time and a quarter of the interval would go unintegrated.
ULP_1E6 = math.ulp(1e6)
COARSE_TIMES = [1e6, 1e6 + 1500 * ULP_1E6]


def test_drift_integrate_rejects_a_step_whose_roundings_lose_part_of_an_interval():
    model = tb.ToroidalFieldModel(1.0)
    cfg = tb.DriftConfig(mu0=tb.magnetic_moment(X0, V0, model), dtau=1.5 * ULP_1E6)
    with pytest.raises(ValueError, match="resolution"):
        tb.drift_integrate(tb.drift_init(X0, V0, model), model, cfg, COARSE_TIMES)


def test_drift_command_exits_2_on_a_step_below_the_resolution_of_tau(tmp_path, capsys):
    # samples on [0, t], within the horizon c / eps and a budget of 2**53 RK4 steps
    t = COARSE_TIMES[1]
    cfg = {"epsilon": 1.0, "h": t / 2, "t_final": t, "variant": "modified", "dtau": 1.5 * ULP_1E6,
           "c": t, "budget_steps": 2**53, "field": {"preset": "paper-toroidal"}, "x0": list(X0),
           "v0": list(V0), "output": {"path": str(tmp_path / "drift.csv")}}
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(cfg))
    assert cli.cli_main(["drift", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "resolution" in err["message"]
    assert list(tmp_path.iterdir()) == [path]


def drift_command(tmp_path, capsys, t_final, stride, h=0.04, **limits):
    """The drift subcommand on the paper orbit at eps = 1e-3: (exit code, stderr, sample times)."""
    cfg = {"epsilon": 1e-3, "h": h, "t_final": t_final, "variant": "modified",
           "field": {"preset": "paper-toroidal"}, "x0": list(X0), "v0": list(V0),
           "output": {"path": str(tmp_path / "drift.csv"), "stride": stride}, **limits}
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(cfg))
    code = cli.cli_main(["drift", "--config", str(path)])
    err = capsys.readouterr().err
    if code:
        return code, json.loads(err), None
    return code, err, np.loadtxt(tmp_path / "drift.csv", delimiter=",", skiprows=1, ndmin=2)[:, 0]


def test_default_sampling_lands_on_t_final(tmp_path, capsys):
    # the run's grid: 0.5 is 12.5 steps of 0.04, and 10 is the largest divisor of
    # the 2500 steps not above 12, so the drift samples every 0.4 up to t_final
    code, err, t = drift_command(tmp_path, capsys, 100.0, None)
    assert (code, err) == (0, "")
    assert t.tolist() == (np.arange(0, 2501, 10) * 0.04).tolist()
    assert t[-1] == 100.0
    # a stride that does not divide t_final is refused (it used to add a short
    # last interval to land on it)
    code, err, _ = drift_command(tmp_path, capsys, 100.0, 7.0)
    assert (code, err["error"]) == (2, "ConfigError")


def test_budget_fires_before_running(tmp_path, capsys):
    # 10 * 1e-3 / 5e-5 = 200 RK4 steps, two per output interval of 0.1, over a
    # run of 100 steps: at the budget it runs, below it it is refused
    code, _, t = drift_command(tmp_path, capsys, 10.0, 0.1, h=0.1, dtau=5e-5, budget_steps=200)
    assert (code, len(t)) == (0, 101)
    code, err, _ = drift_command(tmp_path, capsys, 10.0, 0.1, h=0.1, dtau=5e-5, budget_steps=199)
    assert (code, err["error"]) == (3, "BudgetExceeded")
    assert err["message"].startswith("slow-system RK4 needs 200 steps, above the budget of 199;")
    # tau + dtau == tau once tau > 1e-284: this loop used to never finish
    code, err, _ = drift_command(tmp_path, capsys, 10.0, 0.1, h=0.1, dtau=1e-300)
    assert (code, err["error"]) == (3, "BudgetExceeded")
    # the grid is the run's, so 1e301 samples would take 1e301 steps, which the
    # run's budget refuses before any grid is built
    code, err, _ = drift_command(tmp_path, capsys, 10.0, 1e-300, h=1e-300)
    assert (code, err["error"]) == (3, "BudgetExceeded")
    assert err["message"].startswith(f"run needs {10.0 / 1e-300!r} steps, above the budget of")


def test_budget_counts_the_sample_grid():
    # the grid spans 2000: 20000 steps of dtau, however tau rounds over them
    assert drift._rk4_counts(np.array([0.0, 2000.0]), 1e-3, 1e-4).sum() == 20000.0
    # only the span of the grid counts, not where it starts: 100 steps of dtau
    assert drift._rk4_counts(np.array([990.0, 1000.0]), 1e-3, 1e-4).sum() == 100.0


def test_budget_caps_strides_just_above_a_step(model_1e3, mu0_1e3):
    # each interval of 0.105 is 1.05 dtau of slow time, so it takes 2 steps: 200
    # in all, which ran under a budget of 105 (the span alone is 105 dtau)
    times = [k * 0.105 for k in range(101)]
    assert drift._rk4_counts(np.array(times), 1e-3, 1e-4).sum() == 200.0
    assert count_rk4_steps(model_1e3, tb.DriftConfig(mu0_1e3, dtau=1e-4), times) == 200


DTAU = 2.0**-10  # a binary step: a span of q steps is q * DTAU exactly


@pytest.mark.parametrize("times, eps, dtau, counts", [
    pytest.param([0.0, 100 * DTAU, 300 * DTAU], 1.0, DTAU, [100, 200], id="whole"),
    # within 1e-9 steps of whole: the whole count, the last step a little short or long
    pytest.param([0.0, (100 - 5e-10) * DTAU], 1.0, DTAU, [100], id="just-below-whole"),
    pytest.param([0.0, (100 + 5e-10) * DTAU], 1.0, DTAU, [100], id="just-above-whole"),
    # further off: ceil, the last step shortened
    pytest.param([0.0, (100 - 1e-8) * DTAU], 1.0, DTAU, [100], id="below-whole"),
    pytest.param([0.0, (100 + 1e-8) * DTAU], 1.0, DTAU, [101], id="above-whole"),
    pytest.param([0.0, 0.5 * DTAU, 2.25 * DTAU], 1.0, DTAU, [1, 2], id="fractions"),
    pytest.param([0.0, 1e-3 * DTAU], 1.0, DTAU, [1], id="a-thousandth-step"),
    pytest.param([0.0, 1e-12 * DTAU], 1.0, DTAU, [1], id="a-sliver"),
    pytest.param([3.0, 3.0, 3.0 + DTAU, 3.0 + DTAU], 1.0, DTAU, [0, 1, 0], id="empty"),
    # far from 0 the span rounds: 10 at t = 1e5 is 0.010000000000005116 of tau
    pytest.param([1e5, 1e5 + 10.0], 1e-3, 1e-4, [100], id="far-from-0"),
    pytest.param([-1e5 - 10.0, -1e5], 1e-3, 1e-4, [100], id="far-below-0"),
    # from 2.8e5 steps on, the tolerance is 2**-48 n: 16 to 32 ulps of n
    pytest.param([0.0, 4e6 * (1 + 2e-15) * DTAU], 1.0, DTAU, [4e6], id="many-steps"),
    # the benchmark's slow-compare grid: 1000 whole steps per interval
    pytest.param(np.arange(0, 2501, 250) * 0.04, 1e-3, 1e-5, [1000] * 10, id="slow-compare"),
])
def test_rk4_counts_edge_cases(times, eps, dtau, counts):
    got = drift._rk4_counts(np.array(times, dtype=float), eps, dtau)
    assert got.tolist() == counts


def test_rk4_counts_never_raise_on_overflow():
    # the CLI runs under np.errstate(over="raise"): a span of more than 1.8e308
    # steps counts as inf, which the budget refuses, as the scalar rule returns 0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert drift._rk4_counts(np.array([0.0, 1.0]), 1.0, 5e-324).tolist() == [np.inf]


def test_slow_compare_grid_takes_exactly_its_whole_steps(model_1e3, mu0_1e3):
    # 1000 whole steps of dtau 1e-5 per interval of 10.  In 4 of the 10 intervals
    # tau, summed over 1000 steps, falls short of the sample time by more than
    # 1e-15, and a loop run until tau reached it took a 1001st tiny step: 10004 in all
    cfg = tb.DriftConfig(mu0=mu0_1e3, dtau=1e-5)
    times = np.arange(0, 2501, 250) * 0.04
    assert count_rk4_steps(model_1e3, cfg, times) == 10_000
    s0 = tb.drift_init(X0, V0, model_1e3)
    compiled = tb.drift_integrate(s0, model_1e3, cfg, times)
    with python_backend():
        python = tb.drift_integrate(s0, model_1e3, cfg, times)
    for name in ("t", "r", "z", "vpar"):
        assert getattr(compiled, name).tobytes() == getattr(python, name).tobytes(), name


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_each_interval_restarts_from_its_sample_time(model_1e3, mu0_1e3, backend):
    # 1000 steps of dtau leave tau short of 10 and of 30 (see above); the next
    # interval's shortened step is still measured from the sample time, so a run
    # over the grid reaches, at each sample, what a run over that interval alone
    # reaches from the sample before
    cfg = tb.DriftConfig(mu0=mu0_1e3, dtau=1e-5)
    times = [0.0, 10.0, 10.005, 20.0, 30.0, 30.0123]
    with python_backend() if backend == "python" else contextlib.nullcontext():
        whole = tb.drift_integrate(tb.drift_init(X0, V0, model_1e3), model_1e3, cfg, times)
        for k in range(1, len(times)):
            s = DriftState(whole.r[k - 1], whole.z[k - 1], whole.vpar[k - 1])
            part = tb.drift_integrate(s, model_1e3, cfg, times[k - 1:k + 1])
            assert (part.r[1], part.z[1], part.vpar[1]) == (whole.r[k], whole.z[k],
                                                            whole.vpar[k]), k


def count_rk4_steps(model, cfg, times) -> int:
    """RK4 steps of one drift_integrate run, counted on the Python loop (4 rhs calls each)."""
    calls = [0]
    rhs = drift._rhs

    def counted(*args):
        calls[0] += 1
        return rhs(*args)

    with pytest.MonkeyPatch.context() as mp, python_backend():
        mp.setattr(drift, "_rhs", counted)
        tb.drift_integrate(tb.drift_init(X0, V0, model), model, cfg, times)
    assert calls[0] % 4 == 0
    return calls[0] // 4


@st.composite
def step_grids(draw):
    """(eps, dtau, times): strides at, near or between whole steps, from far-off starts."""
    eps = draw(st.sampled_from([1e-3, 1e-2, 0.37]))
    dtau = draw(st.sampled_from([1e-4, 3e-4, 1e-3]))
    step_t = dtau / eps
    # far from 0, tau rounds by many ulps over an interval's steps
    t0 = draw(st.sampled_from([0.0, 1.0, 123.456, 1e4, 1e5]))
    kind = draw(st.sampled_from(["whole", "near", "any"]))
    times = [t0]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 200))
        if kind == "whole":
            stride = k * step_t
        elif kind == "near":
            nudge = draw(st.sampled_from([-1, 1])) * 10.0 ** -draw(st.integers(9, 16))
            stride = k * step_t * (1.0 + nudge)
        else:
            stride = draw(st.floats(0.0, 200.0)) * step_t
        times.append(times[-1] + stride)
    return eps, dtau, times


@settings(max_examples=80, deadline=None)
@given(grid=step_grids())
def test_an_accepted_run_takes_no_more_steps_than_its_budget(grid):
    eps, dtau, times = grid
    model = tb.ToroidalFieldModel(eps)
    cfg = tb.DriftConfig(1e-4 * eps, dtau=dtau)
    steps = count_rk4_steps(model, cfg, times)
    # the budget is checked against the counts, which are exactly the steps taken
    assert steps == drift._rk4_counts(np.array(times), eps, dtau).sum()
