"""Standard and modified Boris pushers in two-step and one-step form.

The two-step recursion advances positions through

    x^{n+1} - 2 x^n + x^{n-1} = h^2 ( v^n x B(x^n) + E_mod(x^n) ),
    v^n = (x^{n+1} - x^{n-1}) / (2h),

where E_mod = E - mu0 grad|B| for the modified variant (mu0 = 0 for the
standard one).  The implicit relation is solved in closed form, which is
exact for any step size.  The equivalent one-step kick-rotate-kick form
operates on staggered velocities v^{n+1/2}; both generate identical
position sequences from the same start.

The modified variant freezes the magnetic moment at t = 0 and filters the
perpendicular component out of the initial velocity, which lets the slow
drift motion be resolved with steps h far above the gyroperiod.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import AxisSingularity, DomainError, SanityGuard
from .geometry import ToroidalFieldModel, eval_field

VARIANTS = ("standard", "modified")


@dataclass(frozen=True)
class ParticleState:
    """Time, position and velocity of a particle sample."""

    t: float
    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class PusherConfig:
    """Step size, scheme variant and monitoring options for a run.

    mu0 is only used by the modified variant and is expected to come from
    magnetic_moment at the initial state.  nondegeneracy_check_stride
    counts recorded samples (0 disables the monitor); sigma values below
    sigma_warn are collected as structured warnings, never aborts.  v_max
    bounds the velocity for the runaway guard; None means integrate picks
    10 (|v0| + 1) at initialization.
    """

    h: float
    variant: str = "standard"
    mu0: float = 0.0
    nondegeneracy_check_stride: int = 0
    sigma_warn: float = 0.1
    v_max: float | None = None

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("step size h must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.mu0 < 0.0:
            raise ValueError("mu0 must be nonnegative")
        if self.nondegeneracy_check_stride < 0:
            raise ValueError("nondegeneracy_check_stride must be >= 0")

    @property
    def effective_mu0(self) -> float:
        return self.mu0 if self.variant == "modified" else 0.0


@dataclass(frozen=True)
class TwoStepWindow:
    """Adjacent positions (x^{n-1}, x^n) carried by the two-step recursion."""

    x_prev: np.ndarray
    x_curr: np.ndarray
    t_curr: float


@dataclass
class Trajectory:
    """Sampled output of a pusher run.

    v holds centered velocities (x^{n+1} - x^{n-1}) / (2h); the final
    sample uses one lookahead step so every reported time is centered.
    error is None for a completed run, otherwise one of "axis_singularity",
    "domain_error", "sanity_guard" and the samples cover the time before
    the abort.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    h: float
    variant: str
    mu0: float
    field: object
    steps_completed: int
    error: str | None = None
    sigma_min: float | None = None
    warnings: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> ParticleState:
        return ParticleState(t=float(self.t[i]), x=self.x[i].copy(), v=self.v[i].copy())


def magnetic_moment(x, v, field_model) -> float:
    """Magnetic moment |v x B|^2 / (2 |B|^3) = |v_perp|^2 / (2 |B|)."""
    s = eval_field(field_model, x)
    v = np.asarray(v, dtype=float)
    w = np.cross(v, s.B)
    return 0.5 * float(w @ w) / s.absB**3


def filter_initial_velocity(x, v, field_model) -> np.ndarray:
    """Project v onto the direction of B(x), removing the gyration component."""
    s = eval_field(field_model, x)
    v = np.asarray(v, dtype=float)
    e = s.B / s.absB
    return float(e @ v) * e


def _emod(sample, mu0: float) -> np.ndarray:
    return sample.E - mu0 * sample.gradAbsB


def solve_rotation(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Exact solution u of u + c x u = rhs (rational cross-product inverse)."""
    return (rhs - np.cross(c, rhs) + (c @ rhs) * c) / (1.0 + c @ c)


def two_step_advance(window: TwoStepWindow, field_model, config: PusherConfig) -> np.ndarray:
    """One advance of the two-step recursion; returns x^{n+1}.

    x^{n+1} solves the implicit centered-velocity relation

        x^{n+1} - 2 x^n + x^{n-1} = h^2 (v^n x B(x^n) + E_mod(x^n)),
        v^n = (x^{n+1} - x^{n-1}) / (2h),

    in closed form via the rotation solve u + c x u = rhs with
    c = (h/2) B(x^n), which is exact for any |c|.  The solve is carried in
    the increment variable d = x^n - x^{n-1} (rhs = d - c x d + h^2 E_mod,
    x^{n+1} = x^n + u), keeping round-off at the increment scale.
    """
    h = config.h
    mu0 = config.effective_mu0
    s = eval_field(field_model, window.x_curr)
    c = 0.5 * h * s.B
    d = window.x_curr - window.x_prev
    rhs = d - np.cross(c, d) + h * h * _emod(s, mu0)
    d_next = solve_rotation(c, rhs)
    if config.v_max is not None:
        step = float(np.linalg.norm(d_next))
        if step > h * config.v_max:
            raise SanityGuard(step, h * config.v_max, t=window.t_curr)
    return window.x_curr + d_next


def one_step_push(state: ParticleState, field_model, config: PusherConfig) -> ParticleState:
    """Kick-rotate-kick update of a staggered pair (x^n, v^{n-1/2}).

    Returns (x^{n+1}, v^{n+1/2}).  The rotation preserves |v| exactly.
    """
    h = config.h
    half_h = 0.5 * h
    x1, x2, x3 = state.x
    B1, B2, B3, em1, em2, em3 = field_model.bemod(x1, x2, x3, config.effective_mu0)
    # half kick
    vm1, vm2, vm3 = state.v
    vm1 = vm1 + half_h * em1
    vm2 = vm2 + half_h * em2
    vm3 = vm3 + half_h * em3
    # rotation about t = (h/2) B
    t1 = half_h * B1
    t2 = half_h * B2
    t3 = half_h * B3
    vp1 = vm1 + (vm2 * t3 - vm3 * t2)
    vp2 = vm2 + (vm3 * t1 - vm1 * t3)
    vp3 = vm3 + (vm1 * t2 - vm2 * t1)
    den = 1.0 + t1 * t1 + t2 * t2 + t3 * t3
    s1 = 2.0 * t1 / den
    s2 = 2.0 * t2 / den
    s3 = 2.0 * t3 / den
    # rotated velocity plus the second half kick
    v1 = vm1 + (vp2 * s3 - vp3 * s2) + half_h * em1
    v2 = vm2 + (vp3 * s1 - vp1 * s3) + half_h * em2
    v3 = vm3 + (vp1 * s2 - vp2 * s1) + half_h * em3
    v_next = np.array((v1, v2, v3))
    return ParticleState(t=state.t + h, x=state.x + h * v_next, v=v_next)


def initialize(x0, v0_raw, field_model, config: PusherConfig):
    """Initial window and staggered seed for a pusher run.

    The modified variant filters the perpendicular component out of v0;
    x^1 comes from a second-order Taylor start, and the staggered seed
    velocity is v^{1/2} = (x^1 - x^0) / h, which makes the one-step and
    two-step forms generate identical position sequences.

    Returns (window, seed, v0) with window = (x^0, x^1), seed the
    staggered state (t=h, x^1, v^{1/2}), and v0 the possibly filtered
    initial velocity.
    """
    x0 = np.asarray(x0, dtype=float)
    v0_raw = np.asarray(v0_raw, dtype=float)
    if config.variant == "modified":
        v0 = filter_initial_velocity(x0, v0_raw, field_model)
    else:
        v0 = v0_raw.copy()
    h = config.h
    s = eval_field(field_model, x0)
    acc = np.cross(v0, s.B) + _emod(s, config.effective_mu0)
    x1 = x0 + h * v0 + 0.5 * h * h * acc
    seed = ParticleState(t=h, x=x1, v=(x1 - x0) / h)
    return TwoStepWindow(x_prev=x0, x_curr=x1, t_curr=h), seed, v0


def _perp_basis(e: np.ndarray):
    a = np.array([1.0, 0.0, 0.0]) if abs(e[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    u1 = a - (a @ e) * e
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(e, u1)
    return u1, u2


def nondegeneracy_sigma(x, v, h: float, field_model) -> float:
    """Smaller singular value of z -> z + (h^2/4) P_perp (v x B'(x) z).

    The map acts on the plane orthogonal to B(x); values near zero signal
    that the large-step nondegeneracy assumption fails at (x, v).
    """
    s = eval_field(field_model, x)
    v = np.asarray(v, dtype=float)
    e = s.B / s.absB
    u1, u2 = _perp_basis(e)
    quarter_h2 = 0.25 * h * h
    cols = []
    for u in (u1, u2):
        w = u + quarter_h2 * np.cross(v, s.jacB @ u)
        cols.append((float(u1 @ w), float(u2 @ w)))
    a = np.array(cols).T
    return float(np.linalg.svd(a, compute_uv=False)[-1])


_ERROR_TAGS = {
    _kernels.STATUS_AXIS: "axis_singularity",
    _kernels.STATUS_DOMAIN: "domain_error",
    _kernels.STATUS_RUNAWAY: "sanity_guard",
}


def _generic_loop(n, sample_every, h, mu0, v_max, x_arr, d_arr, field_model, out_t, out_x, out_v):
    """Iterate the two-step recursion from x^1 = x_arr, d^1 = d_arr.

    This is the reference definition of the step, for any field model with
    a scalar bemod.  Step i advances (x^i, d^i) to (x^{i+1}, d^{i+1}); the
    centered velocity (d^i + d^{i+1}) / (2h) is recorded whenever i is a
    multiple of sample_every.  Sample row 0 (the initial state) is filled
    by the caller.  Returns (status, rows_written, steps_completed).

    The recursion is carried in summed form: the increment d^n = x^n -
    x^{n-1} is the solver variable and positions accumulate as x += d,
    which keeps round-off at the scale of the increments over 1e7 steps.
    _kernel.c transcribes this loop line for line for the closed-form
    family; keep the expression shapes of both aligned.
    """
    # Python floats: arithmetic on numpy scalars would double the cost of each step
    x1, x2, x3 = map(float, x_arr)
    d1, d2, d3 = map(float, d_arr)
    half_h = 0.5 * h
    h2 = h * h
    inv_2h = 1.0 / (2.0 * h)
    bound = abs(h) * v_max
    k = 1
    for i in range(1, n + 1):
        try:
            B1, B2, B3, em1, em2, em3 = field_model.bemod(x1, x2, x3, mu0)
        except AxisSingularity:
            return _kernels.STATUS_AXIS, k, i - 1
        except DomainError:
            return _kernels.STATUS_DOMAIN, k, i - 1
        cx1 = half_h * B1
        cx2 = half_h * B2
        cx3 = half_h * B3
        q1 = d2 * B3 - d3 * B2
        q2 = d3 * B1 - d1 * B3
        q3 = d1 * B2 - d2 * B1
        r1 = d1 + half_h * q1 + h2 * em1
        r2 = d2 + half_h * q2 + h2 * em2
        r3 = d3 + half_h * q3 + h2 * em3
        dot = cx1 * r1 + cx2 * r2 + cx3 * r3
        den = 1.0 / (1.0 + cx1 * cx1 + cx2 * cx2 + cx3 * cx3)
        dn1 = (r1 - (cx2 * r3 - cx3 * r2) + dot * cx1) * den
        dn2 = (r2 - (cx3 * r1 - cx1 * r3) + dot * cx2) * den
        dn3 = (r3 - (cx1 * r2 - cx2 * r1) + dot * cx3) * den
        if sqrt(dn1 * dn1 + dn2 * dn2 + dn3 * dn3) > bound:
            return _kernels.STATUS_RUNAWAY, k, i - 1
        if i % sample_every == 0:
            out_t[k] = i * h
            out_x[k, 0] = x1
            out_x[k, 1] = x2
            out_x[k, 2] = x3
            out_v[k, 0] = (d1 + dn1) * inv_2h
            out_v[k, 1] = (d2 + dn2) * inv_2h
            out_v[k, 2] = (d3 + dn3) * inv_2h
            k += 1
        x1 = x1 + dn1
        x2 = x2 + dn2
        x3 = x3 + dn3
        d1 = dn1
        d2 = dn2
        d3 = dn3
    return _kernels.STATUS_OK, k, n


def integrate(
    x0,
    v0_raw,
    field_model,
    config: PusherConfig,
    t_final: float,
    observers: Sequence[Callable[[ParticleState], None]] = (),
    sample_every: int = 1,
) -> Trajectory:
    """Run the two-step pusher from t = 0 to t_final = n h (n >= 2).

    Positions are sampled every sample_every-th step together with the
    centered velocity; the run performs one lookahead advance so the final
    sample is centered too.  Observers are invoked once per recorded
    sample, in time order, after stepping finishes.  Identical inputs give
    bit-identical trajectories.

    On AxisSingularity, DomainError or SanityGuard the partial trajectory
    is returned with the matching error tag instead of raising.
    """
    n = int(round(t_final / config.h))
    if abs(n * config.h - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"t_final={t_final} is not a multiple of h={config.h}")
    if n < 2:
        raise ValueError(f"need at least 2 steps, got n={n}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    window, _seed, v0 = initialize(x0, v0_raw, field_model, config)
    v_max = config.v_max if config.v_max is not None else 10.0 * (float(np.linalg.norm(v0)) + 1.0)

    rows = n // sample_every + 1
    out_t = np.empty(rows)
    out_x = np.empty((rows, 3))
    out_v = np.empty((rows, 3))
    out_t[0] = 0.0
    out_x[0] = window.x_prev
    out_v[0] = v0

    mu0 = config.effective_mu0
    d1 = window.x_curr - window.x_prev
    loop = None
    if isinstance(field_model, ToroidalFieldModel) and field_model.poly is not None:
        loop = _kernels.compiled_loop()
    if loop is not None:
        a0, a1, a2, c_e = field_model.poly
        status, k, steps = loop(
            n,
            sample_every,
            config.h,
            field_model.epsilon,
            mu0,
            a0,
            a1,
            a2,
            c_e,
            field_model.r_min,
            field_model.b_min,
            v_max,
            window.x_curr,
            d1,
            out_t,
            out_x,
            out_v,
        )
    else:
        status, k, steps = _generic_loop(
            n,
            sample_every,
            config.h,
            mu0,
            v_max,
            window.x_curr,
            d1,
            field_model,
            out_t,
            out_x,
            out_v,
        )

    traj = Trajectory(
        t=out_t[:k],
        x=out_x[:k],
        v=out_v[:k],
        h=config.h,
        variant=config.variant,
        mu0=mu0,
        field=field_model,
        steps_completed=steps,
        error=_ERROR_TAGS.get(status),
    )
    _monitor_nondegeneracy(traj, config)
    for obs in observers:
        for i in range(len(traj)):
            obs(traj.state(i))
    return traj


def _monitor_nondegeneracy(traj: Trajectory, config: PusherConfig) -> None:
    stride = config.nondegeneracy_check_stride
    if stride <= 0 or len(traj) == 0:
        return
    sigma_min = np.inf
    for i in range(0, len(traj), stride):
        try:
            sig = nondegeneracy_sigma(traj.x[i], traj.v[i], config.h, traj.field)
        except (AxisSingularity, DomainError):
            continue
        sigma_min = min(sigma_min, sig)
        if sig < config.sigma_warn:
            traj.warnings.append(
                {"kind": "nondegeneracy", "t": float(traj.t[i]), "sigma": sig}
            )
    if np.isfinite(sigma_min):
        traj.sigma_min = float(sigma_min)
