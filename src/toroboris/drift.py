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

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .boris import _near_whole
from .errors import AxisSingularity, DomainError
from .geometry import ToroidalFieldModel, dot3, frame

# dtau spans at least 2**k ulps of the largest slow time, k = _DTAU_ULPS_LOG2.
# Each tau += step rounds by at most half an ulp, so the steps leave at most
# 2**-(k+1) of an interval uncovered: 4.8e-7 of it at k = 20.
_DTAU_ULPS_LOG2 = 20
DEFAULT_DTAU = 1e-4  # the RK4 step in slow time unless a run sets its own


@dataclass(frozen=True)
class DriftState:
    """Slow variables: radius r_t, height z_t and parallel velocity v_t."""

    r_t: float
    z_t: float
    v_t: float


@dataclass(frozen=True)
class DriftConfig:
    """Parameters of a drift integration.

    mu0 is the frozen magnetic moment of the initial data (as produced by
    magnetic_moment).  dtau is the fixed RK4 step in slow time; the step
    budget is ExperimentSpec's, checked before a run.
    """

    mu0: float
    dtau: float = DEFAULT_DTAU

    def __post_init__(self):
        if not 0.0 < self.dtau <= 1e-2:
            raise ValueError(f"dtau must lie in (0, 1e-2], got {self.dtau}")
        if not (math.isfinite(self.mu0) and self.mu0 >= 0.0):
            raise ValueError(f"mu0 must be finite and nonnegative, got {self.mu0}")


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
class DriftTrajectory(_SlowSeries):
    """Sampled slow solution on a physical-time grid."""

    epsilon: float

    @property
    def rv_invariant(self) -> np.ndarray:
        return self.r * self.vpar


def _rhs(rt: float, zt: float, vt: float, model: ToroidalFieldModel, muhat: float):
    """Right-hand side at (r~, z~, v~) for muhat = mu0 / epsilon.

    The single Python definition of the slow system; _kernel.c inlines it
    operation for operation.
    """
    if rt < model.r_min:
        raise AxisSingularity(rt, model.r_min)
    b = model.b(rt, zt)
    if b <= 0.0:
        raise DomainError(b)
    ez = model.E_z(rt, zt)
    er = model.E_r(rt, zt)
    dbr = model.db_dr(rt, zt)
    dbz = model.db_dz(rt, zt)
    return (
        (-ez + muhat * dbz) / b,
        (vt * vt / rt + er - muhat * dbr) / b,
        (vt / rt) * (ez - muhat * dbz) / b,
    )


def drift_rhs(s: DriftState, model: ToroidalFieldModel, mu0: float):
    """Right-hand side of the slow system in slow time tau = epsilon t."""
    return _rhs(s.r_t, s.z_t, s.v_t, model, mu0 / model.epsilon)


def drift_init(x0, v0_raw, field_model: ToroidalFieldModel) -> DriftState:
    """Slow initial state (r(x0), z(x0), e_par . v0) from full initial data.

    Takes the raw initial velocity; the parallel projection is the same
    whether or not the perpendicular component was filtered out.
    """
    fr = frame(x0, field_model.r_min)
    v0 = np.asarray(v0_raw, dtype=float)
    return DriftState(r_t=fr.r, z_t=float(fr.z), v_t=float(dot3(fr.e_par, v0)))


def _rk4_loop(times, counts, eps, dtau, model, muhat, out):
    """Fixed-step RK4 of the slow system over the sample grid times, an array.

    This is the reference definition of the slow-time stepping.  Row k of
    out receives (r~, z~, v~) at times[k]; row 0, the initial state, is
    filled by the caller.  Interval k starts at tau = times[k-1] eps and takes
    counts[k-1] steps of dtau, the last shortened to land on times[k] eps
    where they do not fill it whole.  _kernel.c transcribes this loop line for
    line; keep the expression shapes of both aligned.
    """
    # Python floats: numpy scalars or arrays per stage would cost several times more
    times = times.tolist()
    r, z, v = map(float, out[0])
    for k, n in enumerate(counts.tolist(), 1):
        tau = times[k - 1] * eps
        target = times[k] * eps
        for _ in range(n):
            step = target - tau
            if step > dtau:
                step = dtau
            half = 0.5 * step
            k1r, k1z, k1v = _rhs(r, z, v, model, muhat)
            k2r, k2z, k2v = _rhs(r + half * k1r, z + half * k1z, v + half * k1v, model, muhat)
            k3r, k3z, k3v = _rhs(r + half * k2r, z + half * k2z, v + half * k2v, model, muhat)
            k4r, k4z, k4v = _rhs(r + step * k3r, z + step * k3z, v + step * k3v, model, muhat)
            w = step / 6.0
            r = r + w * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            z = z + w * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            v = v + w * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            tau += step
        out[k] = r, z, v


def _sample_grid(sample_times) -> np.ndarray:
    times = np.array(sample_times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("sample_times must be a nonempty 1-D sequence")
    if not np.isfinite(times).all():
        raise ValueError("sample_times must be finite")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("sample_times must be nondecreasing")
    return times


def _rk4_counts(times: np.ndarray, eps: float, dtau: float) -> np.ndarray:
    """The RK4 steps of each interval of the sample grid times, as whole floats.

    An interval spans tau = eps t from eps times[k-1] to eps times[k]: it takes
    n >= 1 steps dtau when span / dtau is _near_whole n, as in boris._whole_steps,
    else ceil(span / dtau), so 0 when empty.  Both RK4 loops take these counts.
    """
    # inf for a span beyond 1.8e308 steps, which the budget refuses
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.diff(times * eps) / dtau
        n = np.rint(q)
        return np.where((n > 0) & _near_whole(q, n), n, np.ceil(q))


def drift_integrate(
    s0: DriftState, model: ToroidalFieldModel, config: DriftConfig, sample_times
) -> DriftTrajectory:
    """Integrate the slow system of model with fixed-step RK4 in slow time.

    The solution is sampled at sample_times, which must be finite and
    nondecreasing; each output interval takes the _rk4_counts steps of
    config.dtau from its first sample time, the last shortened to land on the
    next, so no interpolation is ever involved.  Deterministic: identical inputs
    give bit-identical outputs.  No step budget: see ExperimentSpec.check_budget.

    The steps run in the C loop _kernels picks for the model, bitwise equal
    to the Python loop _rk4_loop, which runs otherwise.  A slow state
    reaching the axis or leaving the field domain raises AxisSingularity or
    DomainError, and one that stops being finite raises FloatingPointError.
    """
    eps = model.epsilon
    sample_times = _sample_grid(sample_times)
    tau_max = eps * max(abs(sample_times[0]), abs(sample_times[-1]))
    if config.dtau < 2.0**_DTAU_ULPS_LOG2 * math.ulp(tau_max):
        # the steps' roundings could leave a visible share of an interval
        # uncovered; above the bound every count is below 2**34
        raise ValueError(f"dtau={config.dtau} is below the resolution of slow time {tau_max}: "
                         f"it must span 2**{_DTAU_ULPS_LOG2} ulps")
    counts = _rk4_counts(sample_times, eps, config.dtau).astype(np.int64)

    out = np.empty((len(sample_times), 3))
    out[0] = s0.r_t, s0.z_t, s0.v_t
    kernel = _kernels.compiled_kernel(model)
    loop = kernel.drift_rk4 if kernel else _rk4_loop
    loop(sample_times, counts, eps, config.dtau, model, config.mu0 / eps, out)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise FloatingPointError(f"slow state is not finite at t={sample_times[k]:.6g}")
    return DriftTrajectory(
        t=sample_times,
        r=out[:, 0],
        z=out[:, 1],
        vpar=out[:, 2],
        epsilon=eps,
    )
