"""Toroidal axisymmetric geometry and the analytic electromagnetic field model.

The local frame at a point x off the symmetry axis e_z = (0,0,1) is

    e_r   = (x1/r, x2/r, 0),   e_par = (-x2/r, x1/r, 0),   e_z = (0,0,1),

with r = sqrt(x1^2 + x2^2) and z = x3.  The toroidal field model prescribes
a strong magnetic field B = (b(r,z)/epsilon) e_par together with an
electric field E = E_r(r,z) e_r + E_z(r,z) e_z that has no component along
B, in the closed form of the paper's experiments (ToroidalFieldModel).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .errors import AxisSingularity, DomainError


@dataclass(frozen=True)
class CylindricalFrame:
    """Local orthonormal frame (e_r, e_par, e_z) and cylindrical coordinates.

    For a single point r and z are floats and each unit vector has shape
    (3,); for points of shape (..., 3), r and z are arrays of shape (...)
    and the unit vectors have the shape of the points.
    """

    r: float | np.ndarray
    z: float | np.ndarray
    e_r: np.ndarray
    e_par: np.ndarray
    e_z: np.ndarray


def _scalar(a):
    """A 0-d result as a Python float, as callers of single points expect."""
    return float(a) if np.ndim(a) == 0 else a


def _xy(x: np.ndarray):
    # x[..., k][()] is a numpy scalar for a single point, as in the scalar code this
    # replaced, so an overflow there still raises naming a scalar operation
    return x[..., 0][()], x[..., 1][()]


def _radius(x: np.ndarray):
    x1, x2 = _xy(x)
    return np.sqrt(x1 * x1 + x2 * x2)


def dot3(a, b) -> np.ndarray:
    """Dot products of 3-vectors along the last axis of arrays a and b: the package's one dot.

    a0 b0 + a1 b1 + a2 b2, each product rounded and summed left to right, so IEEE
    arithmetic alone decides its bits.  A BLAS dot (``a @ b``, np.dot, einsum) picks
    its order and its fused multiply-adds per CPU and numpy build.
    """
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def cross3(a, b) -> np.ndarray:
    """Cross products of 3-vectors along the last axis of a and b.

    Each component is one product minus another, the operations np.cross
    runs in the same order, so every element has the bits of np.cross and
    an overflow raises under np.errstate as it does there.  It skips
    np.cross's argument handling, most of its cost on one pair of vectors.
    """
    a, b = np.asarray(a), np.asarray(b)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    out[..., 0] = a2 * b3 - a3 * b2
    out[..., 1] = a3 * b1 - a1 * b3
    out[..., 2] = a1 * b2 - a2 * b1
    return out


def _frame(x: np.ndarray, r) -> CylindricalFrame:
    x1, x2 = _xy(x)
    # filled by column: three np.stack calls cost several times more on one point
    shape = np.shape(r) + (3,)
    e_r, e_par, e_z = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    e_r[..., 0] = x1 / r
    e_r[..., 1] = x2 / r
    e_par[..., 0] = -x2 / r
    e_par[..., 1] = x1 / r
    e_z[..., 2] = 1.0
    return CylindricalFrame(r=_scalar(r), z=_scalar(x[..., 2]), e_r=e_r, e_par=e_par, e_z=e_z)


@dataclass(frozen=True)
class FieldSample:
    """Field quantities B, |B|, grad|B| and E.

    At a single point absB is a float; at points of shape (..., 3) it has
    shape (...).
    """

    B: np.ndarray
    absB: float | np.ndarray
    gradAbsB: np.ndarray
    E: np.ndarray


def _as_floats():
    """IEEE arithmetic for the model's own values: overflow gives inf, inf - inf NaN.

    The profile functions and |B| = b / epsilon saturate silently, as
    on Python floats and in the compiled loops; only the arithmetic that
    combines them with the frame raises under np.errstate(..., "raise").
    """
    return np.errstate(over="ignore", invalid="ignore")


def _column(a) -> np.ndarray:
    return np.asarray(a)[..., None]


@dataclass(frozen=True)
class ToroidalFieldModel:
    """The closed-form axisymmetric toroidal field of the paper's experiments:

        b = a0 + a1 r + a2 z^2,   B = (b / epsilon) e_par,
        E = c (z e_r + r e_z) = -grad phi,   phi = -c r z,

    so curl E = 0 holds exactly.  The defaults are the standard benchmark
    configuration.  The methods b, db_dr, db_dz, E_r, E_z and phi take r and
    z as floats or as arrays of one shape; the compiled loops of _kernels
    inline the same arithmetic in the same operand order.

    Evaluation raises AxisSingularity for r < r_min and DomainError where
    b(r,z) <= 0, which would leave |B| = b / epsilon no strong field.
    Instances are immutable and safe to share between concurrent runs.
    """

    epsilon: float
    a0: float = 0.0
    a1: float = 1.0
    a2: float = 1.0
    c: float = 0.1
    r_min: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not (isfinite(self.r_min) and self.r_min > 0.0):
            raise ValueError(f"r_min must be positive and finite, got {self.r_min}")

    def b(self, r, z):
        return self.a0 + self.a1 * r + self.a2 * z * z

    def db_dr(self, r, z):
        return self.a1 if isinstance(r, float) else np.full(np.shape(r), float(self.a1))

    def db_dz(self, r, z):
        return 2.0 * self.a2 * z

    def E_r(self, r, z):
        return self.c * z

    def E_z(self, r, z):
        return self.c * r

    def phi(self, r, z):
        return -self.c * r * z

    def bemod(self, x1: float, x2: float, x3: float, mu0: float):
        """B and the modified electric field E - mu0 grad|B| at a point.

        Scalar path used by the Python step loop and the one-step pusher;
        _kernel.c inlines this arithmetic operation for operation.
        """
        r = sqrt(x1 * x1 + x2 * x2)
        if r < self.r_min:
            raise AxisSingularity(r, self.r_min)
        z = x3
        inv_r = 1.0 / r
        er1 = x1 * inv_r
        er2 = x2 * inv_r
        inv_eps = 1.0 / self.epsilon
        bb = self.b(r, z)
        if bb <= 0.0:
            raise DomainError(bb)
        scale = bb * inv_eps
        em_r = self.E_r(r, z) - self.db_dr(r, z) * inv_eps * mu0
        em_z = self.E_z(r, z) - self.db_dz(r, z) * inv_eps * mu0
        return (-scale * er2, scale * er1, 0.0, em_r * er1, em_r * er2, em_z)

    def _checked(self, x: np.ndarray):
        """r, z, the frame, B and |B| at points, checked in order as sample says."""
        r, z = _radius(x), x[..., 2]
        with _as_floats():
            b = self.b(r, z)
        near = r < self.r_min
        # written so that a NaN profile is off the domain too
        bad = np.flatnonzero(near | ~(b > 0.0))
        if len(bad):
            if np.ravel(near)[bad[0]]:
                raise AxisSingularity(float(np.ravel(r)[bad[0]]), self.r_min)
            raise DomainError(float(np.ravel(b)[bad[0]]))
        with _as_floats():
            absB = b * (1.0 / self.epsilon)
        fr = _frame(x, r)
        B = _column(absB) * fr.e_par
        return r, z, fr, B, absB

    def strength(self, x):
        """B and |B| at a point or at points (..., 3), checked as in sample."""
        _, _, _, B, absB = self._checked(np.asarray(x, dtype=float))
        return B, _scalar(absB)

    def sample(self, x) -> FieldSample:
        """Full field sample (B, |B|, grad|B|, E) at a point or at points (..., 3).

        Points are checked in order, so the first one on the axis or off the
        domain raises, as it would if the points were sampled one by one.
        """
        r, z, fr, B, absB = self._checked(np.asarray(x, dtype=float))
        inv_eps = 1.0 / self.epsilon
        with _as_floats():
            db_dr, db_dz = self.db_dr(r, z), self.db_dz(r, z)
            E_r, E_z = self.E_r(r, z), self.E_z(r, z)
        grad_b = _column(db_dr) * fr.e_r
        grad_b = grad_b + _column(db_dz) * fr.e_z
        gradAbsB = grad_b * inv_eps
        E = _column(E_r) * fr.e_r + _column(E_z) * fr.e_z
        return FieldSample(B=B, absB=_scalar(absB), gradAbsB=gradAbsB, E=E)


def frame(x, r_min: float = ToroidalFieldModel.r_min) -> CylindricalFrame:
    """Cylindrical coordinates and local frame at a point (3,) or points (..., 3).

    Raises AxisSingularity for the first point within r_min of the axis.
    """
    x = np.asarray(x, dtype=float)
    r = _radius(x)
    near = np.flatnonzero(r < r_min)
    if len(near):
        raise AxisSingularity(float(np.ravel(r)[near[0]]), r_min)
    return _frame(x, r)


# Config-file name of the closed-form field family (see cli module).
PRESET_NAME = "paper-toroidal"


def eval_field(model: ToroidalFieldModel, x) -> FieldSample:
    """Evaluate a field model at a Cartesian point (3,) or at points (..., 3)."""
    return model.sample(x)


def potential(model: ToroidalFieldModel, x):
    """Scalar potential phi(r(x), z(x)) at a point or points (..., 3)."""
    fr = frame(x, model.r_min)
    with _as_floats():
        return _scalar(model.phi(fr.r, fr.z))


# check_field's checks, in report order, with the worst value each may reach.
_THRESHOLDS = {"grad_b": 1e-6, "epar_dot_E": 1e-13, "curl_E": 1e-10, "div_B_rel": 1e-6}


def toroidal_probes(n: int, seed: int = 0, r_range=(0.25, 1.0), z_range=(-0.75, 0.75)):
    """Deterministic probe points spread over a toroidal shell.

    Raises ValueError unless 0 < low <= high for r_range and low <= high for z_range.
    """
    (r_low, r_high), (z_low, z_high) = r_range, z_range
    if not (0.0 < r_low <= r_high and z_low <= z_high):
        raise ValueError(f"probe ranges need 0 < low <= high for r and low <= high for z, "
                         f"got r_range={tuple(r_range)}, z_range={tuple(z_range)}")
    rng = np.random.default_rng(seed)
    r = rng.uniform(*r_range, size=n)
    z = rng.uniform(*z_range, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _check_pass(model: ToroidalFieldModel, probes: np.ndarray, delta: float):
    """check_field's per-probe values at probes (n, 3), and the smallest b among them.

    The steps run in the order of a pass over one probe, so on a single
    probe the first error raised is the one that probe raises.
    """
    fr = frame(probes, model.r_min)
    r, z = fr.r, fr.z
    # b and its differences are plain float arithmetic: they saturate, never raise
    with _as_floats():
        b = model.b(r, z)
        fd_dr = (model.b(r + delta, z) - model.b(r - delta, z)) / (2.0 * delta)
        fd_dz = (model.b(r, z + delta) - model.b(r, z - delta)) / (2.0 * delta)
        grad = [
            np.abs(fd - an) / np.fmax(1.0, np.abs(an))
            for fd, an in ((fd_dr, model.db_dr(r, z)), (fd_dz, model.db_dz(r, z)))
        ]
    s = model.sample(probes)
    epar_e = np.abs(dot3(fr.e_par, s.E))
    # central differences of E and B along the coordinate axes: dE[:, k] = dE/dx_k
    dE = np.empty(probes.shape + (3,))
    dB = np.empty(probes.shape + (3,))
    for k, step in enumerate(delta * np.eye(3)):
        sp, sm = model.sample(probes + step), model.sample(probes - step)
        dE[:, k] = (sp.E - sm.E) / (2.0 * delta)
        dB[:, k] = (sp.B - sm.B) / (2.0 * delta)
    curl = [dE[:, 1, 2] - dE[:, 2, 1], dE[:, 2, 0] - dE[:, 0, 2], dE[:, 0, 1] - dE[:, 1, 0]]
    div = np.abs(dB[:, 0, 0] + dB[:, 1, 1] + dB[:, 2, 2]) / s.absB
    return (grad, epar_e, np.abs(curl), div), np.min(b[~np.isnan(b)], initial=np.inf)


def check_field(model: ToroidalFieldModel, probes, delta: float = 1e-6) -> dict:
    """Numerically validate a field model at probe points (n, 3).

    Checks, each reported with its worst value over the probes and passed
    at or below its threshold in _THRESHOLDS (a NaN anywhere makes the
    worst value NaN, which fails):
      * analytic db/dr, db/dz against central differences of b
        (relative to max(1, |analytic|));
      * |e_par . E| (the orthogonality assumption);
      * |curl E| by central differences (zero for potential fields);
      * |div B| / |B| by central differences (zero for axisymmetric
        toroidal fields).

    Returns the report {"passed", "min_b", "checks": [{"name", "value",
    "threshold", "passed"}, ...]}, min_b being the smallest b(r, z) over
    the probes.  An error raised at a probe is the first probe's own, as if
    the probes were checked one by one.
    """
    if not 1e-8 <= delta <= 1e-3:
        raise ValueError(f"delta must lie in [1e-8, 1e-3], got {delta}")
    probes = np.asarray(probes, dtype=float)
    try:
        values, min_b = _check_pass(model, probes, delta)
    except (AxisSingularity, DomainError, FloatingPointError):
        # the array pass meets the probes' errors in another order than a
        # pass over them one by one; raise the first failing probe's error
        for i in range(len(probes)):
            _check_pass(model, probes[i:i + 1], delta)
        raise
    checks = []
    for (name, tol), v in zip(_THRESHOLDS.items(), values):
        worst = float(np.max(v, initial=0.0))
        checks.append({"name": name, "value": worst, "threshold": tol, "passed": worst <= tol})
    return {"passed": all(c["passed"] for c in checks), "min_b": float(min_b), "checks": checks}
