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

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from . import _kernels
from .errors import AxisSingularity, DomainError
from .geometry import ToroidalFieldModel, _scalar, cross3, dot3, eval_field

VARIANTS = ("standard", "modified")

# How far, in steps, span / h may lie from a whole n.  From 2.8e5 steps on the
# bound is 2**-48 n (16-32 ulps of n), above the rounding of c / eps / (0.05 eps).
_STEP_TOL = 1e-9


def _near_whole(q, n):
    """Whether q lies within max(_STEP_TOL, 2**-48 n) of the whole n; floats or arrays."""
    return abs(q - n) <= np.maximum(_STEP_TOL, n * 2**-48)


def _whole_steps(span: float, h: float) -> int:
    """The whole number n of steps h in span, or 0 when span / h is not
    _near_whole n: the one span-to-steps rule."""
    q = span / h
    n = round(q) if isfinite(q) else 0
    return n if _near_whole(q, n) else 0


def _sample_times(steps: int, sample_every: int, h: float) -> np.ndarray:
    """The times a run of steps steps h samples, every sample_every-th: i h at step i."""
    return np.arange(0, steps + 1, sample_every) * h


@dataclass(frozen=True)
class ParticleState:
    """Time, position and velocity of a particle sample."""

    t: float
    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class PusherConfig:
    """Step size and scheme variant for a run.

    mu0 is only used by the modified variant and is expected to come from
    magnetic_moment at the initial state.
    """

    h: float
    variant: str = "standard"
    mu0: float = 0.0

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("step size h must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.mu0 < 0.0:
            raise ValueError("mu0 must be nonnegative")

    @property
    def effective_mu0(self) -> float:
        return self.mu0 if self.variant == "modified" else 0.0


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
    field: ToroidalFieldModel
    steps_completed: int
    error: str | None = None

    def __len__(self) -> int:
        return len(self.t)


def magnetic_moment(x, v, field_model) -> float:
    """Magnetic moment |v x B|^2 / (2 |B|^3) = |v_perp|^2 / (2 |B|): mu0's definition.

    Takes one point and velocity (3,).  observables computes the CSV's mu.
    """
    B, absB = field_model.strength(x)
    w = cross3(np.asarray(v, dtype=float), B)
    # a Python float: |B|**3 is libm pow (np.power rounds differently) and
    # overflows to OverflowError, as the scalar expression always has
    return 0.5 * float(dot3(w, w)) / absB**3


def _along_B(B, absB, v: np.ndarray) -> np.ndarray:
    """The projection of v onto the direction of B, whose norm is absB."""
    e = B / absB
    return float(e @ v) * e


def _emod(sample, mu0: float) -> np.ndarray:
    return sample.E - mu0 * sample.gradAbsB


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
    """Staggered seed and initial velocity for a pusher run.

    The modified variant filters the perpendicular component out of v0;
    x^1 comes from a second-order Taylor start, and the staggered seed
    velocity is v^{1/2} = (x^1 - x^0) / h, which makes the one-step and
    two-step forms generate identical position sequences.

    Returns (seed, v0) with seed the staggered state (t=h, x^1, v^{1/2})
    and v0 the possibly filtered initial velocity.
    """
    x0 = np.asarray(x0, dtype=float)
    v0_raw = np.asarray(v0_raw, dtype=float)
    # the one field evaluation at x0: the filter reads B from it too
    s = eval_field(field_model, x0)
    if config.variant == "modified":
        v0 = _along_B(s.B, s.absB, v0_raw)
    else:
        v0 = v0_raw.copy()
    h = config.h
    acc = cross3(v0, s.B) + _emod(s, config.effective_mu0)
    x1 = x0 + h * v0 + 0.5 * h * h * acc
    seed = ParticleState(t=h, x=x1, v=(x1 - x0) / h)
    return seed, v0


_AXES = np.eye(3)


def _perp_basis(e: np.ndarray):
    """Orthonormal u1, u2 spanning the planes orthogonal to unit vectors e (..., 3)."""
    a = np.where(np.abs(e[..., :1]) <= 0.9, _AXES[0], _AXES[1])
    u1 = a - dot3(a, e)[..., None] * e
    u1 = u1 / np.sqrt(dot3(u1, u1))[..., None]
    u2 = cross3(e, u1)
    return u1, u2


def nondegeneracy_sigma(x, v, h: float, field_model):
    """Smaller singular value of z -> z + (h^2/4) P_perp (v x B'(x) z).

    The map acts on the plane orthogonal to B(x); values near zero signal
    that the large-step nondegeneracy assumption fails at (x, v).  Takes a
    point and velocity (3,), or arrays (..., 3) of them, and returns a float
    or an array of shape (...).
    """
    s = eval_field(field_model, x)
    v = np.asarray(v, dtype=float)
    e = s.B / np.asarray(s.absB)[..., None]
    u1, u2 = _perp_basis(e)
    quarter_h2 = 0.25 * h * h
    w1, w2 = (u + quarter_h2 * cross3(v, (s.jacB @ u[..., None])[..., 0]) for u in (u1, u2))
    # rows (u1, u2), columns (w1, w2): the 2x2 matrix of the map in the basis
    a = np.stack([dot3(u1, w1), dot3(u1, w2), dot3(u2, w1), dot3(u2, w2)], axis=-1)
    sigma = np.linalg.svd(a.reshape(a.shape[:-1] + (2, 2)), compute_uv=False)[..., -1]
    return _scalar(sigma)


_ERROR_TAGS = {
    _kernels.STATUS_AXIS: "axis_singularity",
    _kernels.STATUS_DOMAIN: "domain_error",
    _kernels.STATUS_RUNAWAY: "sanity_guard",
}


def _generic_loop(n, sample_every, h, mu0, v_max, x_arr, d_arr, field_model, out_x, out_v):
    """Iterate the two-step recursion from x^1 = x_arr, d^1 = d_arr.

    This is the reference definition of the step, for ToroidalFieldModel and
    its subclasses.  The increment d^{n+1} = x^{n+1} - x^n solves the
    rotation u + c x u = rhs with c = (h/2) B(x^n) and rhs = d^n - c x d^n
    + h^2 E_mod(x^n), in closed form and exactly for any |c|.  Step i
    advances (x^i, d^i) to (x^{i+1}, d^{i+1}); the centered velocity
    (d^i + d^{i+1}) / (2h) is recorded whenever i is a multiple of
    sample_every, so a run of s steps writes s // sample_every + 1 rows.
    Sample row 0 (the initial state) is filled by the caller.  Returns
    (status, steps_completed).

    The recursion is carried in summed form: the increment d^n = x^n -
    x^{n-1} is the solver variable and positions accumulate as x += d,
    which keeps round-off at the scale of the increments over 1e7 steps.
    _kernel.c transcribes this loop line for line for ToroidalFieldModel;
    keep the expression shapes of both aligned.
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
            return _kernels.STATUS_AXIS, i - 1
        except DomainError:
            return _kernels.STATUS_DOMAIN, i - 1
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
        # written so that a NaN step fails the guard too
        if not (sqrt(dn1 * dn1 + dn2 * dn2 + dn3 * dn3) <= bound):
            return _kernels.STATUS_RUNAWAY, i - 1
        if i % sample_every == 0:
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
    return _kernels.STATUS_OK, n


def integrate(
    x0,
    v0_raw,
    field_model,
    config: PusherConfig,
    t_final: float,
    sample_every: int = 1,
) -> Trajectory:
    """Run the two-step pusher from t = 0 to t_final = n h (n >= 2).

    Positions are sampled every sample_every-th step together with the
    centered velocity; the run performs one lookahead advance so the final
    sample is centered too.  Identical inputs give bit-identical
    trajectories.

    When a step reaches the axis, leaves the field domain or fails the
    runaway guard (a step longer than 10 (|v0| + 1) h, or not finite), the
    partial trajectory is returned with the matching error tag instead of
    raising.  The steps run in the C loop that _kernels.compiled_kernel picks
    for the model, or else in the Python loop _generic_loop.

    n is _whole_steps(t_final, h), the rule ExperimentSpec applies too: a
    t_final that is not a whole number n >= 2 of steps raises ValueError.
    """
    n = _whole_steps(t_final, config.h)
    if n < 2:
        raise ValueError(f"t_final={t_final} must be a multiple (>= 2) of h={config.h}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    seed, v0 = initialize(x0, v0_raw, field_model, config)
    v_max = 10.0 * (float(np.linalg.norm(v0)) + 1.0)

    rows = n // sample_every + 1
    out_x = np.empty((rows, 3))
    out_v = np.empty((rows, 3))
    out_x[0] = x0
    out_v[0] = v0

    mu0 = config.effective_mu0
    kernel = _kernels.compiled_kernel(field_model)
    loop = kernel.two_step_loop if kernel else _generic_loop
    status, steps = loop(n, sample_every, config.h, mu0, v_max, seed.x, seed.x - x0, field_model,
                         out_x, out_v)
    t = _sample_times(steps, sample_every, config.h)
    return Trajectory(
        t=t,
        x=out_x[:len(t)],
        v=out_v[:len(t)],
        h=config.h,
        variant=config.variant,
        mu0=mu0,
        field=field_model,
        steps_completed=steps,
        error=_ERROR_TAGS.get(status),
    )
