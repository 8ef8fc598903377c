"""Experiment orchestration: reference runs, error series and scaling suites.

Two kinds of comparisons are supported.  Reference-based errors measure a
large-step run against a fine standard-Boris solution (step factor 0.05
times epsilon), matching the qualitative figure-style experiments.
Drift-based errors measure runs against the slow system integrated by RK4,
which is the comparator of the quantitative scaling statements: the slow
error of the modified pusher scales like h^2 in the regime h^2 ~ eps, and
the slow error of the exact (finely resolved) dynamics scales like eps.
All comparisons operate on exactly shared time grids; there is no
interpolation anywhere in the error path.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from math import ceil
from typing import Callable

import numpy as np

from .boris import PusherConfig, Trajectory, initialize, integrate, magnetic_moment
from .drift import DEFAULT_BUDGET, DriftConfig, DriftTrajectory, drift_init, drift_integrate
from .errors import BudgetExceeded, GridMismatch
from .geometry import ToroidalFieldModel, frame, potential
from .errors import Unsupported


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a field model, initial data, scheme and horizons.

    dt_out is rounded to the nearest positive multiple of h; t_final must
    then be a multiple of dt_out so that every comparison grid contains
    the final time.  The reference step is ref_h_factor * epsilon, rounded
    down so that it divides dt_out exactly.  t_final may not exceed c
    divided by epsilon, and the run at step h may not take more than
    budget_steps steps (BudgetExceeded).
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
    dtau: float = 1e-4
    sigma_stride: int = 1

    def __post_init__(self):
        eps = self.field.epsilon
        if self.t_final > self.c / eps * (1.0 + 1e-12):
            raise ValueError(
                f"t_final={self.t_final} exceeds the horizon c/eps={self.c / eps}"
            )
        if self.t_final == 0.0:
            object.__setattr__(self, "dt_out", self.dt_out or max(self.h, 0.5))
            return
        # checked before rounding: a tiny h overflows round() or stalls _aligned_dt_out
        steps = self.t_final / self.h
        if steps > self.budget_steps + 0.5:
            raise BudgetExceeded(steps, self.budget_steps)
        n = round(steps)
        if n < 2 or abs(n * self.h - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(f"t_final={self.t_final} must be a multiple (>= 2) of h={self.h}")
        object.__setattr__(self, "dt_out", self._aligned_dt_out())
        m = round(self.t_final / self.dt_out)
        if abs(m * self.dt_out - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(
                f"t_final={self.t_final} is not a multiple of the output stride {self.dt_out}"
            )

    def _aligned_dt_out(self) -> float:
        want = self.dt_out if self.dt_out is not None else max(self.h, 0.5)
        n = round(self.t_final / self.h)
        k = min(max(1, round(want / self.h)), n)
        while n % k != 0:
            k -= 1
        return k * self.h

    @property
    def epsilon(self) -> float:
        return self.field.epsilon

    @property
    def sample_stride(self) -> int:
        return round(self.dt_out / self.h)

    @property
    def h_ref(self) -> float:
        raw = self.ref_h_factor * self.epsilon
        return self.dt_out / ceil(self.dt_out / raw)

    @property
    def reference_steps(self) -> int:
        return round(self.t_final / self.h_ref)

    def mu0(self) -> float:
        return magnetic_moment(self.x0, self.v0, self.field)


def run_trajectory(spec: ExperimentSpec) -> Trajectory:
    """The experiment's main run (standard or modified variant at step h)."""
    mu0 = spec.mu0() if spec.variant == "modified" else 0.0
    config = PusherConfig(
        h=spec.h,
        variant=spec.variant,
        mu0=mu0,
        nondegeneracy_check_stride=spec.sigma_stride,
    )
    return integrate(
        spec.x0, spec.v0, spec.field, config, spec.t_final, sample_every=spec.sample_stride
    )


def run_reference(spec: ExperimentSpec) -> Trajectory:
    """Fine standard-Boris reference on the experiment's output grid.

    Initial velocity is raw by default (the exact problem's data); the
    ref_filtered_init flag switches to the filtered start to isolate the
    gyroradius contribution from the error.  Raises BudgetExceeded before
    doing any work if the step count is above budget.
    """
    steps = spec.reference_steps
    if steps > spec.budget_steps:
        raise BudgetExceeded(steps, spec.budget_steps)
    variant = "modified" if spec.ref_filtered_init else "standard"
    config = PusherConfig(h=spec.h_ref, variant=variant, mu0=0.0)
    if spec.t_final == 0.0:
        window, _seed, v0 = initialize(spec.x0, spec.v0, spec.field, config)
        return Trajectory(
            t=np.zeros(1),
            x=window.x_prev.reshape(1, 3),
            v=v0.reshape(1, 3),
            h=spec.h_ref,
            variant=variant,
            mu0=0.0,
            field=spec.field,
            steps_completed=0,
        )
    return integrate(
        spec.x0,
        spec.v0,
        spec.field,
        config,
        spec.t_final,
        sample_every=round(spec.dt_out / spec.h_ref),
    )


def run_drift(spec: ExperimentSpec, sample_times=None) -> DriftTrajectory:
    """Slow-system solution on the experiment's output grid (or a supplied grid)."""
    s0 = drift_init(spec.x0, spec.v0, spec.field)
    config = DriftConfig(
        epsilon=spec.epsilon, mu0=spec.mu0(), dtau=spec.dtau, budget_steps=spec.budget_steps
    )
    if sample_times is None:
        m = round(spec.t_final / spec.dt_out)
        sample_times = np.arange(m + 1) * spec.dt_out
    return drift_integrate(s0, spec.field, config, spec.t_final, sample_times=sample_times)


@dataclass
class ObservableSeries:
    """Cylindrical observables of a trajectory: r, z, v_par, mu, energy."""

    t: np.ndarray
    r: np.ndarray
    z: np.ndarray
    vpar: np.ndarray
    mu: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def observables(traj: Trajectory) -> ObservableSeries:
    """Derive per-sample cylindrical observables from a trajectory.

    energy is |v|^2 / 2 plus the scalar potential when the model carries
    one (kinetic energy only otherwise).
    """
    model = traj.field
    n = len(traj)
    r = np.empty(n)
    z = np.empty(n)
    vpar = np.empty(n)
    mu = np.empty(n)
    energy = np.empty(n)
    r_min = getattr(model, "r_min", 1e-9)
    for i in range(n):
        x = traj.x[i]
        v = traj.v[i]
        fr = frame(x, r_min)
        r[i], z[i] = fr.r, fr.z
        vpar[i] = float(fr.e_par @ v)
        mu[i] = magnetic_moment(x, v, model)
        kinetic = 0.5 * float(v @ v)
        try:
            energy[i] = kinetic + potential(model, x)
        except Unsupported:
            energy[i] = kinetic
    return ObservableSeries(t=traj.t.copy(), r=r, z=z, vpar=vpar, mu=mu, energy=energy)


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
        raise GridMismatch(float("inf"))
    if len(ta):
        d = float(np.max(np.abs(np.asarray(ta) - np.asarray(tb))))
        if d > 1e-12:
            raise GridMismatch(d)


def error_vs_drift(obs: ObservableSeries, drift_traj: DriftTrajectory) -> ErrorSeries:
    """Pointwise |r - r~|, |z - z~|, |v_par - v~| on a shared grid."""
    _check_grid(obs.t, drift_traj.t)
    return ErrorSeries(
        t=obs.t.copy(),
        err_r=np.abs(obs.r - drift_traj.r),
        err_z=np.abs(obs.z - drift_traj.z),
        err_vpar=np.abs(obs.vpar - drift_traj.vpar),
    )


def error_vs_reference(obs: ObservableSeries, ref_obs: ObservableSeries) -> ErrorSeries:
    """Pointwise observable errors against a reference trajectory's series."""
    _check_grid(obs.t, ref_obs.t)
    return ErrorSeries(
        t=obs.t.copy(),
        err_r=np.abs(obs.r - ref_obs.r),
        err_z=np.abs(obs.z - ref_obs.z),
        err_vpar=np.abs(obs.vpar - ref_obs.vpar),
    )


def fit_loglog_slope(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h) over all points."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    lx = np.log(hs)
    ly = np.log(errs)
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


@dataclass(frozen=True)
class ConvergencePoint:
    h: float
    epsilon: float
    max_err: dict
    steps: int | None = None
    sigma_min: float | None = None
    warnings: int = 0


@dataclass
class ConvergenceReport:
    """Per-run maxima, fitted slopes and the order gate outcome."""

    mode: str
    points: list
    slopes: dict
    order_band: tuple[float, float]
    passed: bool
    diagnostics: list = dc_field(default_factory=list)
    series: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "points": [
                {
                    "h": p.h,
                    "epsilon": p.epsilon,
                    "max_err": p.max_err,
                    "steps": p.steps,
                    "sigma_min": p.sigma_min,
                    "warnings": p.warnings,
                }
                for p in self.points
            ],
            "slopes": self.slopes,
            "order_band": list(self.order_band),
            "passed": self.passed,
            "diagnostics": self.diagnostics,
        }


def build_convergence_report(
    mode: str, points, order_band: tuple[float, float] = (1.7, 2.3)
) -> ConvergenceReport:
    """Fit per-component slopes over the points and gate them on the band.

    The fit is skipped (with a diagnostic, failing the gate) when any
    error is exactly zero, since a log fit is meaningless there.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 runs for a convergence fit")
    diagnostics = []
    slopes = {}
    hs = [p.h for p in points]
    for comp in ("r", "z", "vpar"):
        errs = [p.max_err[comp] for p in points]
        if any(e == 0.0 for e in errs):
            diagnostics.append(f"component {comp}: zero max error, slope fit skipped")
            slopes[comp] = None
        else:
            slopes[comp] = fit_loglog_slope(hs, errs)
    passed = all(
        s is not None and order_band[0] <= s <= order_band[1] for s in slopes.values()
    )
    return ConvergenceReport(
        mode=mode, points=list(points), slopes=slopes, order_band=order_band, passed=passed,
        diagnostics=diagnostics,
    )


def _respec(base: ExperimentSpec, epsilon: float, h: float) -> ExperimentSpec:
    if base.field.poly is None:
        raise ValueError("convergence studies need the closed-form field family")
    model = replace(base.field, epsilon=epsilon)
    return replace(base, field=model, h=h, t_final=base.c / epsilon, variant="modified")


def convergence_study(
    base_spec: ExperimentSpec,
    mode: str,
    h_list=None,
    pairs=None,
    order_band: tuple[float, float] = (1.7, 2.3),
    keep_series: bool = False,
) -> ConvergenceReport:
    """Modified-Boris convergence study in one of two modes.

    scaled_pairs: runs the (epsilon, h) pairs, which must keep h^2/epsilon
    constant, against the slow drift solution over the slow horizon c.
    This is the quantitative order test; the expected slope is 2.

    fixed_eps: runs the steps in h_list at the base spec's epsilon against
    the fine reference.  The reference carries an order-eps gyration
    floor, so this mode is qualitative.
    """
    points = []
    series = []
    if mode == "scaled_pairs":
        if not pairs or len(pairs) < 2:
            raise ValueError("scaled_pairs mode needs at least 2 (epsilon, h) pairs")
        ratios = [h * h / eps for eps, h in pairs]
        if max(ratios) - min(ratios) > 1e-12 * max(ratios):
            raise ValueError(f"h^2/eps must be constant across pairs, got {ratios}")
        for eps, h in pairs:
            spec = _respec(base_spec, eps, h)
            traj = run_trajectory(spec)
            if traj.error is not None:
                raise RuntimeError(f"run (eps={eps}, h={h}) aborted: {traj.error}")
            dr = run_drift(spec, sample_times=traj.t)
            err = error_vs_drift(observables(traj), dr)
            if keep_series:
                series.append(err)
            points.append(
                ConvergencePoint(
                    h=h,
                    epsilon=eps,
                    max_err=err.max_by_component(),
                    steps=traj.steps_completed,
                    sigma_min=traj.sigma_min,
                    warnings=len(traj.warnings),
                )
            )
    elif mode == "fixed_eps":
        if not h_list or len(h_list) < 2:
            raise ValueError("fixed_eps mode needs at least 2 step sizes")
        for h in h_list:
            spec = _respec(base_spec, base_spec.epsilon, h)
            traj = run_trajectory(spec)
            if traj.error is not None:
                raise RuntimeError(f"run (h={h}) aborted: {traj.error}")
            ref = run_reference(spec)
            err = error_vs_reference(observables(traj), observables(ref))
            if keep_series:
                series.append(err)
            points.append(
                ConvergencePoint(
                    h=h,
                    epsilon=spec.epsilon,
                    max_err=err.max_by_component(),
                    steps=traj.steps_completed,
                    sigma_min=traj.sigma_min,
                    warnings=len(traj.warnings),
                )
            )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    report = build_convergence_report(mode, points, order_band)
    report.series = series
    return report


@dataclass
class Theorem1Report:
    """Reference-vs-drift maxima per epsilon and their consecutive ratios.

    The expected error is proportional to epsilon; each ratio is gated
    against the corresponding epsilon ratio within a factor-3 band.
    """

    eps_list: list
    max_err: list
    ratios: list
    bands: list
    passed: bool
    steps: list = dc_field(default_factory=list)
    series: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "eps_list": self.eps_list,
            "max_err": self.max_err,
            "ratios": self.ratios,
            "bands": self.bands,
            "passed": self.passed,
            "steps": self.steps,
        }


def theorem1_suite(
    make_model: Callable[[float], ToroidalFieldModel],
    eps_list,
    c: float,
    x0,
    v0,
    dt_out: float = 0.5,
    budget_steps: int = DEFAULT_BUDGET,
    dtau: float = 1e-4,
    keep_series: bool = False,
) -> Theorem1Report:
    """Linear-in-epsilon scaling of the fine reference against the drift.

    For each epsilon the fine reference (standard Boris, step 0.05 eps,
    raw initial velocity) is compared with the slow solution over the
    horizon c / epsilon; the maxima across consecutive epsilon values must
    shrink proportionally to epsilon within a factor-3 band.
    """
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps_list must not be empty")
    maxima = []
    steps = []
    series = []
    for eps in eps_list:
        model = make_model(eps)
        spec = ExperimentSpec(
            field=model,
            x0=tuple(x0),
            v0=tuple(v0),
            h=0.05 * eps,
            t_final=c / eps,
            variant="standard",
            dt_out=dt_out,
            c=c,
            budget_steps=budget_steps,
            dtau=dtau,
        )
        ref = run_reference(spec)
        if ref.error is not None:
            raise RuntimeError(f"reference run (eps={eps}) aborted: {ref.error}")
        dr = run_drift(spec, sample_times=ref.t)
        err = error_vs_drift(observables(ref), dr)
        if keep_series:
            series.append(err)
        maxima.append(err.max_by_component())
        steps.append(ref.steps_completed)
    ratios = []
    bands = []
    passed = True
    for i in range(len(eps_list) - 1):
        expected = eps_list[i] / eps_list[i + 1]
        lo, hi = expected / 3.0, expected * 3.0
        comp_ratios = {}
        for comp in ("r", "z", "vpar"):
            ratio = maxima[i][comp] / maxima[i + 1][comp]
            comp_ratios[comp] = ratio
            if not lo <= ratio <= hi:
                passed = False
        ratios.append(comp_ratios)
        bands.append((lo, hi))
    return Theorem1Report(
        eps_list=eps_list,
        max_err=maxima,
        ratios=ratios,
        bands=bands,
        passed=passed,
        steps=steps,
        series=series,
    )
