"""Toroidal axisymmetric geometry and analytic electromagnetic field models.

The local frame at a point x off the symmetry axis e_z = (0,0,1) is

    e_r   = (x1/r, x2/r, 0),   e_par = (-x2/r, x1/r, 0),   e_z = (0,0,1),

with r = sqrt(x1^2 + x2^2) and z = x3.  A field model prescribes a strong
magnetic field B = (b(r,z)/epsilon) e_par together with an electric field
E = E_r(r,z) e_r + E_z(r,z) e_z that has no component along B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable

import numpy as np

from .errors import AxisSingularity, DomainError, Unsupported

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
    """Dot products of 3-vectors along the last axis of a and b.

    Each is a (1, 3) @ (3, 1) matmul, the BLAS dot that ``a @ b`` runs on
    one pair of vectors, so every element has the bits of ``a @ b``; a sum
    of products, or einsum, rounds differently.
    """
    return (np.asarray(a)[..., None, :] @ np.asarray(b)[..., :, None])[..., 0, 0]


def _each(f, r, z) -> np.ndarray:
    """f(r, z) per element, on Python floats: model callables are scalar functions."""
    values = [f(a, b) for a, b in zip(np.ravel(r).tolist(), np.ravel(z).tolist())]
    return np.array(values, dtype=float).reshape(np.shape(r))


def _frame(x: np.ndarray, r) -> CylindricalFrame:
    x1, x2 = _xy(x)
    zero = np.zeros_like(r)
    return CylindricalFrame(
        r=_scalar(r),
        z=_scalar(x[..., 2]),
        e_r=np.stack([x1 / r, x2 / r, zero], axis=-1),
        e_par=np.stack([-x2 / r, x1 / r, zero], axis=-1),
        e_z=np.stack([zero, zero, zero + 1.0], axis=-1),
    )


def frame(x, r_min: float = 1e-9) -> CylindricalFrame:
    """Cylindrical coordinates and local frame at a point (3,) or points (..., 3).

    Raises AxisSingularity for the first point within r_min of the axis.
    """
    x = np.asarray(x, dtype=float)
    r = _radius(x)
    near = np.flatnonzero(r < r_min)
    if len(near):
        raise AxisSingularity(float(np.ravel(r)[near[0]]), r_min)
    return _frame(x, r)


@dataclass(frozen=True)
class FieldSample:
    """Field quantities B, |B|, grad|B|, E and the Jacobian of B.

    At a single point absB is a float; at points of shape (..., 3) it has
    shape (...) and jacB has shape (..., 3, 3).
    """

    B: np.ndarray
    absB: float | np.ndarray
    gradAbsB: np.ndarray
    E: np.ndarray
    jacB: np.ndarray


@dataclass(frozen=True)
class ToroidalFieldModel:
    """Axisymmetric toroidal field B = (b(r,z)/epsilon) e_par with in-plane E.

    The profile b and its partial derivatives, and the electric components
    E_r, E_z, are supplied as callables of (r, z).  ``poly`` marks the
    closed-form family b = a0 + a1 r + a2 z^2, E_r = c z, E_z = c r, for
    which a compiled integration kernel is available.

    Evaluation raises AxisSingularity for r < r_min and DomainError when
    b(r,z) <= b_min.  Instances are immutable and safe to share between
    concurrent runs.
    """

    epsilon: float
    b: Callable[[float, float], float]
    db_dr: Callable[[float, float], float]
    db_dz: Callable[[float, float], float]
    E_r: Callable[[float, float], float]
    E_z: Callable[[float, float], float]
    phi: Callable[[float, float], float] | None = None
    r_min: float = 1e-9
    b_min: float = 0.0
    poly: tuple[float, float, float, float] | None = field(default=None)

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.r_min <= 0.0:
            raise ValueError("r_min must be positive")

    def profile(self, r: float, z: float) -> float:
        b = self.b(r, z)
        if b <= self.b_min:
            raise DomainError(b, self.b_min)
        return b

    def bemod(self, x1: float, x2: float, x3: float, mu0: float):
        """B and the modified electric field E - mu0 grad|B| at a point.

        Scalar path used by the Python step loop and the one-step pusher;
        _kernel.c inlines this arithmetic for the closed-form family
        operation for operation.
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
        if bb <= self.b_min:
            raise DomainError(bb, self.b_min)
        scale = bb * inv_eps
        em_r = self.E_r(r, z) - self.db_dr(r, z) * inv_eps * mu0
        em_z = self.E_z(r, z) - self.db_dz(r, z) * inv_eps * mu0
        return (-scale * er2, scale * er1, 0.0, em_r * er1, em_r * er2, em_z)

    def _checked(self, x: np.ndarray):
        """r, z, the frame, B, |B| and b / r at points, checked in order as sample says."""
        r, z = _radius(x), x[..., 2]
        r_min, inv_eps = self.r_min, 1.0 / self.epsilon
        # per point in Python floats: |B| and b/r overflow to inf, not to FloatingPointError
        absB, b_over_r = [], []
        for ri, zi in zip(np.ravel(r).tolist(), np.ravel(z).tolist()):
            if ri < r_min:
                raise AxisSingularity(ri, r_min)
            bb = self.profile(ri, zi)
            absB.append(bb * inv_eps)
            b_over_r.append(bb / ri)
        shape = np.shape(r)
        absB = np.array(absB, dtype=float).reshape(shape)
        fr = _frame(x, r)
        B = absB[..., None] * fr.e_par
        return r, z, fr, B, absB, np.array(b_over_r, dtype=float).reshape(shape)

    def strength(self, x):
        """B and |B| at a point or at points (..., 3), checked as in sample."""
        _, _, _, B, absB, _ = self._checked(np.asarray(x, dtype=float))
        return B, _scalar(absB)

    def sample(self, x) -> FieldSample:
        """Full field sample (B, |B|, grad|B|, E, B') at a point or at points (..., 3).

        Points are checked in order, so the first one on the axis or off the
        domain raises, as it would if the points were sampled one by one.
        """
        r, z, fr, B, absB, b_over_r = self._checked(np.asarray(x, dtype=float))
        inv_eps = 1.0 / self.epsilon
        grad_b = _each(self.db_dr, r, z)[..., None] * fr.e_r
        grad_b = grad_b + _each(self.db_dz, r, z)[..., None] * fr.e_z
        gradAbsB = grad_b * inv_eps
        E = _each(self.E_r, r, z)[..., None] * fr.e_r + _each(self.E_z, r, z)[..., None] * fr.e_z
        outer_r_par = fr.e_r[..., :, None] * fr.e_par[..., None, :]
        jacB = inv_eps * (
            fr.e_par[..., :, None] * grad_b[..., None, :] - b_over_r[..., None, None] * outer_r_par
        )
        return FieldSample(B=B, absB=_scalar(absB), gradAbsB=gradAbsB, E=E, jacB=jacB)

    def in_domain(self, x) -> np.ndarray:
        """Which of the points (..., 3) lie off the axis and where b > b_min."""
        x = np.asarray(x, dtype=float)
        r, z = np.asarray(_radius(x)), x[..., 2]
        ok = ~(r < self.r_min)
        ok[ok] = ~(_each(self.b, r[ok], z[ok]) <= self.b_min)
        return ok


# Config-file name of the closed-form preset family (see cli module).
PRESET_NAME = "paper-toroidal"


def toroidal_model(
    epsilon: float,
    a0: float = 0.0,
    a1: float = 1.0,
    a2: float = 1.0,
    c: float = 0.1,
    r_min: float = 1e-9,
    b_min: float = 0.0,
) -> ToroidalFieldModel:
    """Closed-form preset: b = a0 + a1 r + a2 z^2, E_r = c z, E_z = c r.

    The electric field derives from the scalar potential phi = -c r z, so
    curl E = 0 holds exactly.  Defaults reproduce the standard benchmark
    configuration.
    """
    return ToroidalFieldModel(
        epsilon=epsilon,
        b=lambda r, z: a0 + a1 * r + a2 * z * z,
        db_dr=lambda r, z: a1,
        db_dz=lambda r, z: 2.0 * a2 * z,
        E_r=lambda r, z: c * z,
        E_z=lambda r, z: c * r,
        phi=lambda r, z: -c * r * z,
        r_min=r_min,
        b_min=b_min,
        poly=(a0, a1, a2, c),
    )


@dataclass(frozen=True)
class UniformFieldModel:
    """Constant B and E; validation model for exact-orbit checks.

    E must be orthogonal to B (the package-wide assumption E_par = 0).
    """

    B0: tuple[float, float, float]
    E0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        B = np.asarray(self.B0, float)
        E = np.asarray(self.E0, float)
        nb = np.linalg.norm(B)
        ne = np.linalg.norm(E)
        if nb > 0 and ne > 0 and abs(B @ E) > 1e-13 * nb * ne:
            raise ValueError("uniform E must be orthogonal to B")

    def bemod(self, x1, x2, x3, mu0):
        b1, b2, b3 = self.B0
        e1, e2, e3 = self.E0
        return (b1, b2, b3, e1, e2, e3)

    def sample(self, x) -> FieldSample:
        shape = np.shape(x)[:-1]
        B = np.asarray(self.B0, float)
        return FieldSample(
            B=np.broadcast_to(B, shape + (3,)).copy(),
            absB=_scalar(np.full(shape, float(np.linalg.norm(B)))),
            gradAbsB=np.zeros(shape + (3,)),
            E=np.broadcast_to(np.asarray(self.E0, float), shape + (3,)).copy(),
            jacB=np.zeros(shape + (3, 3)),
        )

    def strength(self, x):
        """B and |B| at a point or at points (..., 3)."""
        s = self.sample(x)
        return s.B, s.absB

    def in_domain(self, x) -> np.ndarray:
        """A uniform field is defined everywhere."""
        return np.ones(np.shape(x)[:-1], dtype=bool)


def eval_field(model, x) -> FieldSample:
    """Evaluate a field model at a Cartesian point (3,) or at points (..., 3)."""
    return model.sample(x)


def potential(model, x):
    """Scalar potential phi(r(x), z(x)) at a point or points (..., 3).

    Unsupported if the model has none.
    """
    if not isinstance(model, ToroidalFieldModel):
        raise Unsupported("only toroidal models carry a scalar potential")
    fr = frame(x, model.r_min)
    if model.phi is None:
        raise Unsupported("field model carries no scalar potential")
    return _scalar(_each(model.phi, fr.r, fr.z))


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the numerical field self-checks; one entry per check."""

    checks: tuple[CheckResult, ...]
    min_b: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_b": self.min_b,
            "checks": [
                {"name": c.name, "value": c.value, "threshold": c.threshold, "passed": c.passed}
                for c in self.checks
            ],
        }


def toroidal_probes(n: int, seed: int = 0, r_range=(0.25, 1.0), z_range=(-0.75, 0.75)):
    """Deterministic probe points spread over a toroidal shell."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(*r_range, size=n)
    z = rng.uniform(*z_range, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def check_field(
    model: ToroidalFieldModel,
    probes,
    delta: float = 1e-6,
    grad_tol: float = 1e-6,
    epar_e_tol: float = 1e-13,
    curl_e_tol: float = 1e-10,
    div_b_tol: float = 1e-6,
) -> ValidationReport:
    """Numerically validate a field model at probe points.

    Checks, each reported with its worst value over the probes:
      * analytic db/dr, db/dz against central differences of b
        (relative to max(1, |analytic|));
      * |e_par . E| (the orthogonality assumption);
      * |curl E| by central differences (zero for potential fields);
      * |div B| / |B| by central differences (zero for axisymmetric
        toroidal fields).
    """
    if not 1e-8 <= delta <= 1e-3:
        raise ValueError(f"delta must lie in [1e-8, 1e-3], got {delta}")
    probes = np.asarray(probes, dtype=float)
    worst_grad = 0.0
    worst_epar_e = 0.0
    worst_curl = 0.0
    worst_div = 0.0
    min_b = np.inf
    eye = np.eye(3)
    for p in probes:
        fr = frame(p, model.r_min)
        r, z = fr.r, fr.z
        min_b = min(min_b, model.b(r, z))
        fd_dr = (model.b(r + delta, z) - model.b(r - delta, z)) / (2.0 * delta)
        fd_dz = (model.b(r, z + delta) - model.b(r, z - delta)) / (2.0 * delta)
        for fd, an in ((fd_dr, model.db_dr(r, z)), (fd_dz, model.db_dz(r, z))):
            worst_grad = max(worst_grad, abs(fd - an) / max(1.0, abs(an)))
        s = model.sample(p)
        worst_epar_e = max(worst_epar_e, abs(float(fr.e_par @ s.E)))
        # central differences of E and B along the coordinate axes
        dE = np.empty((3, 3))
        dB = np.empty((3, 3))
        for k in range(3):
            sp = model.sample(p + delta * eye[k])
            sm = model.sample(p - delta * eye[k])
            dE[k] = (sp.E - sm.E) / (2.0 * delta)
            dB[k] = (sp.B - sm.B) / (2.0 * delta)
        curl = np.array([dE[1][2] - dE[2][1], dE[2][0] - dE[0][2], dE[0][1] - dE[1][0]])
        worst_curl = max(worst_curl, float(np.max(np.abs(curl))))
        worst_div = max(worst_div, abs(dB[0][0] + dB[1][1] + dB[2][2]) / s.absB)
    values = (
        ("grad_b", float(worst_grad), grad_tol),
        ("epar_dot_E", float(worst_epar_e), epar_e_tol),
        ("curl_E", float(worst_curl), curl_e_tol),
        ("div_B_rel", float(worst_div), div_b_tol),
    )
    checks = tuple(CheckResult(n, v, tol, bool(v <= tol)) for n, v, tol in values)
    return ValidationReport(checks=checks, min_b=float(min_b))
