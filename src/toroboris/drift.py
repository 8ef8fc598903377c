"""Slow guiding-center system for the toroidal geometry.

The slow variables (r~, z~, v~) obey, in the rescaled slow time
tau = epsilon t,

    dr~/dtau = ( -E_z + (mu0/eps) db/dz ) / b
    dz~/dtau = ( v~^2 / r~ + E_r - (mu0/eps) db/dr ) / b
    dv~/dtau = ( v~ / r~ ) ( E_z - (mu0/eps) db/dz ) / b

with all profile functions evaluated at (r~, z~).  mu0 is the scheme's
frozen magnetic moment taken with respect to the full field B = B1/eps,
so it scales like eps; dividing by eps recovers the moment with respect
to B1, which is the strength at which the grad-B terms act on the slow
motion (the electric drift, curvature drift and grad-B drift are then all
order one in tau).  The rescaling removes epsilon from the system, making
integration cost independent of the field strength.

The product r~ v~ is a first integral: the grad-B and electric terms in
dr~ and dv~ cancel exactly, which gives a cheap correctness monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxisSingularity, BudgetExceeded
from .geometry import ToroidalFieldModel, eval_field, frame

DEFAULT_BUDGET = int(5e8)


@dataclass(frozen=True)
class DriftState:
    """Slow variables: radius r_t, height z_t and parallel velocity v_t."""

    r_t: float
    z_t: float
    v_t: float


@dataclass(frozen=True)
class DriftConfig:
    """Parameters of a drift integration.

    epsilon must equal the field model's epsilon; mu0 is the frozen
    magnetic moment of the initial data (as produced by magnetic_moment).
    dtau is the fixed RK4 step in slow time; dt_out the output stride in
    physical time (None lets the caller's default apply).  budget_steps caps
    the RK4 steps a run may need.
    """

    epsilon: float
    mu0: float
    dtau: float = 1e-4
    dt_out: float | None = None
    budget_steps: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not 0.0 < self.dtau <= 1e-2:
            raise ValueError(f"dtau must lie in (0, 1e-2], got {self.dtau}")
        if self.mu0 < 0.0:
            raise ValueError("mu0 must be nonnegative")


@dataclass
class DriftTrajectory:
    """Sampled slow solution on a physical-time grid."""

    t: np.ndarray
    r: np.ndarray
    z: np.ndarray
    vpar: np.ndarray
    epsilon: float
    mu0: float

    def __len__(self) -> int:
        return len(self.t)

    @property
    def rv_invariant(self) -> np.ndarray:
        return self.r * self.vpar


def drift_rhs(s: DriftState, model: ToroidalFieldModel, mu0: float):
    """Right-hand side of the slow system in slow time tau = epsilon t."""
    rt, zt, vt = s.r_t, s.z_t, s.v_t
    if rt < model.r_min:
        raise AxisSingularity(rt, model.r_min)
    b = model.profile(rt, zt)
    muhat = mu0 / model.epsilon
    ez = model.E_z(rt, zt)
    er = model.E_r(rt, zt)
    dbr = model.db_dr(rt, zt)
    dbz = model.db_dz(rt, zt)
    return (
        (-ez + muhat * dbz) / b,
        (vt * vt / rt + er - muhat * dbr) / b,
        (vt / rt) * (ez - muhat * dbz) / b,
    )


def drift_init(x0, v0_raw, field_model) -> DriftState:
    """Slow initial state (r(x0), z(x0), e_par . v0) from full initial data.

    Takes the raw initial velocity; the parallel projection is the same
    whether or not the perpendicular component was filtered out.
    """
    r_min = getattr(field_model, "r_min", 1e-9)
    fr = frame(x0, r_min)
    v0 = np.asarray(v0_raw, dtype=float)
    return DriftState(r_t=fr.r, z_t=float(fr.z), v_t=float(fr.e_par @ v0))


def _rhs_array(y: np.ndarray, model: ToroidalFieldModel, mu0: float) -> np.ndarray:
    return np.array(drift_rhs(DriftState(y[0], y[1], y[2]), model, mu0))


def drift_integrate(
    s0: DriftState,
    model: ToroidalFieldModel,
    config: DriftConfig,
    t_final: float,
    sample_times=None,
) -> DriftTrajectory:
    """Integrate the slow system with fixed-step RK4 in slow time.

    Sampling happens at exact multiples of the output stride (or at the
    explicitly supplied sample_times); within each output interval the
    integrator takes steps of config.dtau, shortening the final substep to
    land on the sample time, so no interpolation is ever involved.
    Deterministic: identical inputs give bit-identical outputs.  Raises
    BudgetExceeded before doing any work if the run needs more than
    config.budget_steps steps: one per dtau of slow time, and at least one
    per output interval.
    """
    if t_final < 0.0:
        raise ValueError("t_final must be nonnegative")
    if config.epsilon != model.epsilon:
        raise ValueError(
            f"config epsilon {config.epsilon} does not match model epsilon {model.epsilon}"
        )
    eps = config.epsilon
    dt_out = config.dt_out
    if dt_out is None:
        dt_out = t_final / 1000.0 if t_final > 0.0 else 1.0
    intervals = t_final / dt_out if sample_times is None else len(sample_times) - 1
    steps = max(eps * t_final / config.dtau, intervals)
    if steps > config.budget_steps:
        raise BudgetExceeded(steps, config.budget_steps)
    if sample_times is None:
        m = int(np.floor(t_final / dt_out + 1e-9))
        times = [k * dt_out for k in range(m + 1)]
        if times[-1] < t_final - 1e-9 * max(1.0, t_final):
            times.append(t_final)
        sample_times = np.array(times)
    else:
        sample_times = np.asarray(sample_times, dtype=float)

    y = np.array([s0.r_t, s0.z_t, s0.v_t])
    out = np.empty((len(sample_times), 3))
    out[0] = y
    dtau = config.dtau
    tau = sample_times[0] * eps
    for k in range(1, len(sample_times)):
        target = sample_times[k] * eps
        while tau < target:
            step = target - tau
            if step > dtau:
                step = dtau
            k1 = _rhs_array(y, model, config.mu0)
            k2 = _rhs_array(y + 0.5 * step * k1, model, config.mu0)
            k3 = _rhs_array(y + 0.5 * step * k2, model, config.mu0)
            k4 = _rhs_array(y + step * k3, model, config.mu0)
            y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tau += step
            if target - tau < 1e-15 * max(1.0, abs(target)):
                tau = target
        out[k] = y
    return DriftTrajectory(
        t=sample_times.copy(),
        r=out[:, 0],
        z=out[:, 1],
        vpar=out[:, 2],
        epsilon=eps,
        mu0=config.mu0,
    )


def guiding_center(x, v, field_model) -> np.ndarray:
    """First-order guiding center x + (v x B) / |B|^2.

    Diagnostic for comparing full orbits against slow orbits; for v
    parallel to B it returns x itself.
    """
    s = eval_field(field_model, x)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return x + np.cross(v, s.B) / (s.absB * s.absB)
