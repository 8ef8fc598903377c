"""Experiment orchestration: reference runs, error series and scaling suites.

Two kinds of comparisons are supported.  Reference-based errors measure a
large-step run against a fine standard-Boris solution (step factor 0.05
times epsilon), matching the qualitative figure-style experiments.
Drift-based errors measure runs against the slow system integrated by RK4,
which is the comparator of the quantitative scaling statements: the slow
error of the modified pusher scales like h^2 in the regime h^2 ~ eps, and
the slow error of the exact (finely resolved) dynamics scales like eps.
compare is the one path that runs an experiment against either
comparator; it operates on exactly shared time grids, with no
interpolation anywhere in the error path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from dataclasses import field as dataclass_field
from functools import cached_property
from math import ceil, isqrt

import numpy as np

from .boris import (
    PusherConfig, Trajectory, _sample_times, _whole_steps, integrate, magnetic_moment,
    nondegeneracy_sigma,
)
from .drift import (DEFAULT_DTAU, DriftConfig, DriftTrajectory, _rk4_counts, drift_init,
                    drift_integrate)
from .errors import BudgetExceeded, GridMismatch, RunAborted, SchemaError
from .geometry import ToroidalFieldModel, _as_floats, cross3, dot3, frame

DEFAULT_BUDGET = int(5e8)
# A sample whose nondegeneracy sigma falls below this is reported as a warning.
_SIGMA_WARN = 0.1
# theorem1_suite's nominal step, as a multiple of epsilon.
_THEOREM1_STEP = 0.05
# Default band a fitted convergence slope must lie in: second order.
_ORDER_BAND = (1.7, 2.3)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a field model, initial data, scheme and horizons.

    t_final must be a whole number n >= 2 of steps h by boris._whole_steps,
    as in integrate, at most c / epsilon.  The spec holds n as steps and
    owns the sample grid: its runs sample every k-th step, k = sample_stride,
    at sample_times = (0, k, ..., n) h.  An explicit dt_out must be k whole
    steps with k dividing n (ValueError otherwise); by default k is the
    largest divisor of n not above round(max(h, 0.5) / h).  dt_out then
    holds k h.  The reference step is ref_h_factor * epsilon, rounded down to
    divide dt_out unless _whole_steps finds dt_out whole steps of it, for
    n // k * reference_stride steps.  Only the spec checks budget_steps: for
    n when built, and for a comparator's run in check_budget.
    """

    field: ToroidalFieldModel
    x0: tuple[float, float, float]
    v0: tuple[float, float, float]
    h: float
    t_final: float
    variant: str = "modified"
    dt_out: float | None = None
    ref_h_factor: float = 0.05
    ref_filtered_init: bool = False
    c: float = 0.5
    budget_steps: int = DEFAULT_BUDGET
    dtau: float = DEFAULT_DTAU
    # decided in __post_init__: the step count n and the sample stride k
    steps: int = dataclass_field(init=False, repr=False)
    sample_stride: int = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        eps = self.field.epsilon
        if self.t_final > self.c / eps * (1.0 + 1e-12):
            raise ValueError(
                f"t_final={self.t_final} exceeds the horizon c/eps={self.c / eps}"
            )
        # the budget first: an over-budget horizon exits 3 whether or not it is whole
        # steps; the count reported is n when it is, as a float, so that a count
        # from 2**53 on prints as the quotient's repr
        n = _whole_steps(self.t_final, self.h)
        steps = float(n) or self.t_final / self.h
        if steps > self.budget_steps + 0.5:
            raise BudgetExceeded(steps, self.budget_steps, "run", f"h={self.h:.6g}")
        if n < 2:
            raise ValueError(f"t_final={self.t_final} must be a multiple (>= 2) of h={self.h}")
        if self.dt_out is None:
            # capped before round(): a huge ratio would overflow it
            k = round(min(max(self.h, 0.5) / self.h, n))
            if n % k:
                # the largest divisor of n not above k, from the divisor pairs (d, n // d)
                pairs = ((d, n // d) for d in range(1, isqrt(n) + 1) if n % d == 0)
                k = max(q for pair in pairs for q in pair if q <= k)
        else:
            k = _whole_steps(self.dt_out, self.h)
            if k < 1 or n % k:
                raise ValueError(
                    f"output stride {self.dt_out} must be a whole number of steps h={self.h} "
                    f"that divides t_final={self.t_final}"
                )
        object.__setattr__(self, "steps", n)
        object.__setattr__(self, "sample_stride", k)
        object.__setattr__(self, "dt_out", k * self.h)

    @property
    def epsilon(self) -> float:
        return self.field.epsilon

    @property
    def sample_times(self) -> np.ndarray:
        """The times the run samples, with the bits integrate writes: i h at step i."""
        return _sample_times(self.steps, self.sample_stride, self.h)

    @property
    def reference_stride(self) -> int:
        """Reference steps per sample: dt_out / (ref_h_factor eps) when _whole_steps
        finds it whole, else the fewest that make a step at most ref_h_factor eps."""
        step = self.ref_h_factor * self.epsilon
        return _whole_steps(self.dt_out, step) or ceil(self.dt_out / step)

    @property
    def h_ref(self) -> float:
        return self.dt_out / self.reference_stride

    @property
    def reference_steps(self) -> int:
        return self.steps // self.sample_stride * self.reference_stride

    @cached_property  # the RK4 steps check_budget("drift") reads, counted once per spec
    def _rk4_steps(self) -> float:
        return float(_rk4_counts(self.sample_times, self.epsilon, self.dtau).sum())

    def check_budget(self, against: str) -> None:
        """Raise BudgetExceeded if the "reference" or "drift" comparator needs over budget_steps."""
        if against == "reference":
            steps, run = self.reference_steps, "reference"
            step = f"reference.h_factor*epsilon={self.ref_h_factor * self.epsilon:.6g}"
        elif against == "drift":
            steps, run, step = self._rk4_steps, "slow-system RK4", f"dtau={self.dtau:.6g}"
        else:
            raise ValueError(f"against must be 'drift' or 'reference', got {against!r}")
        if not steps <= self.budget_steps:
            raise BudgetExceeded(steps, self.budget_steps, run, step)

    @cached_property  # run_trajectory and run_drift both read it: computed once per spec
    def mu0(self) -> float:
        return magnetic_moment(self.x0, self.v0, self.field)


def run_trajectory(spec: ExperimentSpec) -> Trajectory:
    """The experiment's main run (standard or modified variant at step h)."""
    mu0 = spec.mu0 if spec.variant == "modified" else 0.0
    config = PusherConfig(h=spec.h, variant=spec.variant, mu0=mu0)
    return integrate(
        spec.x0, spec.v0, spec.field, config, spec.t_final, sample_every=spec.sample_stride
    )


def run_reference(spec: ExperimentSpec) -> Trajectory:
    """Fine standard-Boris reference on the experiment's output grid.

    Initial velocity is raw by default (the exact problem's data); the
    ref_filtered_init flag switches to the filtered start to isolate the
    gyroradius contribution from the error.  spec.check_budget raises
    BudgetExceeded before any step when reference_steps is above budget.
    """
    spec.check_budget("reference")
    variant = "modified" if spec.ref_filtered_init else "standard"
    config = PusherConfig(h=spec.h_ref, variant=variant, mu0=0.0)
    # steps h_ref, not t_final: t_final's offset from the run's grid, counted in
    # steps, is h / h_ref times larger on the reference's
    return integrate(spec.x0, spec.v0, spec.field, config, spec.reference_steps * spec.h_ref,
                     sample_every=spec.reference_stride)


def run_drift(spec: ExperimentSpec) -> DriftTrajectory:
    """Slow-system solution at spec.sample_times, the times its run writes, once in budget."""
    s0 = drift_init(spec.x0, spec.v0, spec.field)
    config = DriftConfig(mu0=spec.mu0, dtau=spec.dtau)
    spec.check_budget("drift")
    return drift_integrate(s0, spec.field, config, spec.sample_times)


def monitor_nondegeneracy(traj: Trajectory) -> tuple[float, list]:
    """Check the large-step nondegeneracy condition on every sample of a run.

    Returns (sigma_min, warnings): the smallest nondegeneracy_sigma over the
    samples, and one warning dict {"kind": "nondegeneracy", "t", "sigma"}
    per sample whose sigma is below 0.1.  A low sigma is reported, never an
    abort.  The first sample on the axis or off the field domain raises, as
    in observables; integrate writes none, as its steps check each sample.
    """
    sigma = nondegeneracy_sigma(traj.x, traj.v, traj.h, traj.field)
    low = sigma < _SIGMA_WARN
    warnings = [
        {"kind": "nondegeneracy", "t": t, "sigma": sig}
        for t, sig in zip(traj.t[low].tolist(), sigma[low].tolist())
    ]
    return float(sigma.min()), warnings


@dataclass
class _SlowSeries:
    """The slow observables r, z, v_par of a trajectory: what an error series compares."""

    t: np.ndarray
    r: np.ndarray
    z: np.ndarray
    vpar: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class ObservableSeries(_SlowSeries):
    """Cylindrical observables of a trajectory: r, z, v_par, mu, energy."""

    mu: np.ndarray
    energy: np.ndarray


def _slow_series(traj: Trajectory) -> _SlowSeries:
    """t, r, z and v_par = e_par . v of a trajectory's samples, from one frame."""
    fr = frame(traj.x, traj.field.r_min)
    return _SlowSeries(t=traj.t.copy(), r=fr.r, z=fr.z.copy(), vpar=dot3(fr.e_par, traj.v))


def observables(traj: Trajectory) -> ObservableSeries:
    """Derive per-sample cylindrical observables from a trajectory.

    mu is |v x e|^2 / |B| / 2 (2 |B| may overflow), e = B / |B|: magnetic_moment within rounding.
    energy is |v|^2 / 2 plus the scalar potential.  The first sample on the
    axis or off the field domain raises AxisSingularity or DomainError.
    """
    model = traj.field
    # first: strength raises for the first sample off the domain, in order
    B, absB = model.strength(traj.x)
    w = cross3(traj.v, B / absB[:, None])
    mu = (w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1] + w[:, 2] * w[:, 2]) / absB * 0.5
    s = _slow_series(traj)
    with _as_floats():
        phi = model.phi(s.r, s.z)
    energy = 0.5 * dot3(traj.v, traj.v) + phi
    return ObservableSeries(t=s.t, r=s.r, z=s.z, vpar=s.vpar, mu=mu, energy=energy)


@dataclass
class ErrorSeries:
    """Per-time absolute errors of (r, z, v_par) against a comparator."""

    t: np.ndarray
    err_r: np.ndarray
    err_z: np.ndarray
    err_vpar: np.ndarray

    @property
    def max_r(self) -> float:
        return float(np.max(self.err_r))

    @property
    def max_z(self) -> float:
        return float(np.max(self.err_z))

    @property
    def max_vpar(self) -> float:
        return float(np.max(self.err_vpar))

    def max_by_component(self) -> dict:
        return {"r": self.max_r, "z": self.max_z, "vpar": self.max_vpar}


def _check_grid(ta, tb) -> None:
    if len(ta) != len(tb):
        raise GridMismatch(float("inf"), (len(ta), len(tb)))
    if len(ta):
        d = float(np.max(np.abs(np.asarray(ta) - np.asarray(tb))))
        # written so that a NaN time fails the check too
        if not (d <= 1e-12):
            raise GridMismatch(d)


def _error_series(a, b) -> ErrorSeries:
    """|r_a - r_b|, |z_a - z_b|, |vpar_a - vpar_b| for series with t, r, z, vpar on one grid."""
    _check_grid(a.t, b.t)
    return ErrorSeries(
        t=a.t.copy(),
        err_r=np.abs(a.r - b.r),
        err_z=np.abs(a.z - b.z),
        err_vpar=np.abs(a.vpar - b.vpar),
    )


def error_vs_drift(obs: _SlowSeries, drift_traj: DriftTrajectory) -> ErrorSeries:
    """Pointwise |r - r~|, |z - z~|, |v_par - v~| on a shared grid.

    obs is a run's observables, or any series with t, r, z and vpar.
    """
    return _error_series(obs, drift_traj)


def error_vs_reference(obs: _SlowSeries, ref_obs: _SlowSeries) -> ErrorSeries:
    """Pointwise observable errors against a reference trajectory's series."""
    return _error_series(obs, ref_obs)


def compare(spec: ExperimentSpec, against: str) -> tuple[Trajectory, ErrorSeries, int | None]:
    """The experiment's main run and its error series against a comparator.

    against is "drift", the slow solution at the run's sample times, or
    "reference", the fine reference on the same output grid.  Returns the
    run, the errors and the reference's step count (None against the
    drift).  Raises BudgetExceeded before any run, and RunAborted("run" or
    "reference", tag) when either run ends early; the caller runs the monitor.

    Only the compared r, z and v_par are computed, not observables' mu and
    energy; a completed run's samples all lie on the domain, which its steps
    checked, so that moves no axis or domain error.
    """
    spec.check_budget(against)
    run = run_trajectory(spec)
    if run.error is not None:
        raise RunAborted("run", run.error)
    obs = _slow_series(run)
    if against == "drift":
        return run, error_vs_drift(obs, run_drift(spec)), None
    ref = run_reference(spec)
    if ref.error is not None:
        raise RunAborted("reference", ref.error)
    return run, error_vs_reference(obs, _slow_series(ref)), ref.steps_completed


def fit_loglog_slope(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h) over all points."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    lx = np.log(hs)
    ly = np.log(errs)
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def _convergence_report(mode: str, points: list, order_band) -> dict:
    """The study report: the points, per-component fitted slopes and the band gate.

    The fit is skipped (with a diagnostic, failing the gate) when any
    error is exactly zero, since a log fit is meaningless there.
    """
    diagnostics = []
    slopes = {}
    hs = [p["h"] for p in points]
    for comp in ("r", "z", "vpar"):
        errs = [p["max_err"][comp] for p in points]
        if any(e == 0.0 for e in errs):
            diagnostics.append(f"component {comp}: zero max error, slope fit skipped")
            slopes[comp] = None
        else:
            slopes[comp] = fit_loglog_slope(hs, errs)
    passed = all(
        s is not None and order_band[0] <= s <= order_band[1] for s in slopes.values()
    )
    return {
        "mode": mode,
        "points": points,
        "slopes": slopes,
        "order_band": list(order_band),
        "passed": passed,
        "diagnostics": diagnostics,
    }


def _respec(base: ExperimentSpec, epsilon: float, h: float) -> ExperimentSpec:
    """base at (epsilon, h) over c / epsilon, on base's grid: dt_out passed on as explicit."""
    model = replace(base.field, epsilon=epsilon)
    return replace(base, field=model, h=h, t_final=base.c / epsilon, variant="modified")


def convergence_study(
    base_spec: ExperimentSpec,
    mode: str,
    h_list=None,
    pairs=None,
    order_band: tuple[float, float] = _ORDER_BAND,
) -> tuple[dict, list[ErrorSeries]]:
    """Modified-Boris convergence study in one of two modes.

    scaled_pairs: runs the (epsilon, h) pairs, which must keep h^2/epsilon
    constant, against the slow drift solution over the slow horizon c.
    This is the quantitative order test; the expected slope is 2.

    fixed_eps: runs the steps in h_list at the base spec's epsilon against
    the fine reference.  The reference carries an order-eps gyration
    floor, so this mode is qualitative.

    Returns (report, series): the report {"mode", "points", "slopes",
    "order_band", "passed", "diagnostics"}, with one point {"h", "epsilon",
    "max_err", "steps", "sigma_min", "warnings"} per run, and the runs'
    error series in the same order.
    """
    if mode == "scaled_pairs":
        if not pairs or len(pairs) < 2:
            raise ValueError("scaled_pairs mode needs at least 2 (epsilon, h) pairs")
        ratios = [h * h / eps for eps, h in pairs]
        if max(ratios) - min(ratios) > 1e-12 * max(ratios):
            raise ValueError(f"h^2/eps must be constant across pairs, got {ratios}")
        runs = [(eps, h, f"eps={eps}, h={h}") for eps, h in pairs]
        against = "drift"
    elif mode == "fixed_eps":
        if not h_list or len(h_list) < 2:
            raise ValueError("fixed_eps mode needs at least 2 step sizes")
        runs = [(base_spec.epsilon, h, f"h={h}") for h in h_list]
        against = "reference"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # every point's grid and budgets are checked before the first run
    specs = [_respec(base_spec, eps, h) for eps, h, _ in runs]
    for spec in specs:
        spec.check_budget(against)
    points = []
    series = []
    for spec, (eps, h, label) in zip(specs, runs):
        try:
            traj, err, _ = compare(spec, against)
        except RunAborted as e:
            raise RuntimeError(f"{e.run} ({label}) aborted: {e.tag}") from e
        sigma_min, warnings = monitor_nondegeneracy(traj)
        series.append(err)
        points.append({
            "h": h,
            "epsilon": eps,
            "max_err": err.max_by_component(),
            "steps": traj.steps_completed,
            "sigma_min": sigma_min,
            "warnings": len(warnings),
        })
    return _convergence_report(mode, points, order_band), series


def theorem1_suite(
    model: ToroidalFieldModel,
    eps_list,
    c: float,
    x0,
    v0,
    dt_out: float | None = None,
    budget_steps: int = DEFAULT_BUDGET,
    dtau: float = DEFAULT_DTAU,
) -> tuple[dict, list[ErrorSeries]]:
    """Linear-in-epsilon scaling of the fine reference against the drift.

    For each epsilon, in model with its epsilon replaced, the fine reference
    (standard Boris, step 0.05 eps rounded down to divide the output stride,
    raw initial velocity) is the main run of a spec compared with the slow
    solution over the horizon c / epsilon; the maxima across consecutive epsilon values must shrink
    proportionally to epsilon within a factor-3 band.  dt_out is the stride
    of each epsilon's ExperimentSpec at the nominal step 0.05 eps.

    Every epsilon's grid and budgets are checked before the first run; an epsilon
    whose c / epsilon is not whole nominal steps is a SchemaError at /eps_list/<index>,
    and one whose run is over budget_steps names its step as 0.05*epsilon.

    Returns (report, series): the report {"eps_list", "max_err", "ratios",
    "bands", "passed", "steps"}, with one entry of max_err and steps per
    epsilon and one ratio and band per consecutive pair, and the error
    series per epsilon.
    """
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps_list must not be empty")
    specs = []
    for i, eps in enumerate(eps_list):
        model_eps, h = replace(model, epsilon=eps), _THEOREM1_STEP * eps
        try:
            spec = ExperimentSpec(
                field=model_eps, x0=tuple(x0), v0=tuple(v0), h=h, t_final=c / eps,
                variant="standard", dt_out=dt_out, c=c, budget_steps=budget_steps, dtau=dtau,
            )
            specs.append(replace(spec, h=spec.h_ref))
        except BudgetExceeded as e:
            raise BudgetExceeded(e.steps, e.budget, "run",
                                 f"{_THEOREM1_STEP}*epsilon={h:.6g}") from None
        except ValueError:
            if _whole_steps(c / eps, h) >= 2:
                raise  # the stride's error
            raise SchemaError(
                f"/eps_list/{i}", f"the horizon c/eps = {c!r}/{eps!r} must be a whole number "
                f"(>= 2) of steps of {_THEOREM1_STEP}*eps = {h!r}",
            ) from None
        specs[-1].check_budget("drift")
    maxima = []
    steps = []
    series = []
    for eps, spec in zip(eps_list, specs):
        try:
            ref, err, _ = compare(spec, "drift")
        except RunAborted as e:
            raise RuntimeError(f"reference run (eps={eps}) aborted: {e.tag}") from e
        series.append(err)
        maxima.append(err.max_by_component())
        steps.append(ref.steps_completed)
    bands = [(a / b / 3.0, a / b * 3.0) for a, b in zip(eps_list, eps_list[1:])]
    ratios = [
        {comp: m0[comp] / m1[comp] for comp in ("r", "z", "vpar")}
        for m0, m1 in zip(maxima, maxima[1:])
    ]
    passed = all(lo <= r <= hi for (lo, hi), rs in zip(bands, ratios) for r in rs.values())
    report = {"eps_list": eps_list, "max_err": maxima, "ratios": ratios, "bands": bands,
              "passed": passed, "steps": steps}
    return report, series
