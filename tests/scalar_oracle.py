"""Per-sample scalar definitions of the observables, the moment, sigma and check_field.

These are the per-row loops that the array code in toroboris replaced,
with their own scalar frame and field sample, as the oracle the array code
must match to the last bit.  They read the models' profile methods and
parameters and call nothing else in the package.  Every 3-vector dot is
_dot, a0 b0 + a1 b1 + a2 b2 summed left to right as in the package.  The
moment has two definitions, as in the package: magnetic_moment, mu0's, is
0.5 |v x B|^2 / |B|**3 in Python floats, and the mu of observables is
|v x e|^2 / |B| / 2 with e = B / |B|.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from toroboris.errors import AxisSingularity, DomainError

from uniform_model import UniformFieldModel


def frame(x, r_min):
    """(r, z, e_r, e_par, e_z) at one point; AxisSingularity within r_min of the axis."""
    x = np.asarray(x, dtype=float)
    r = sqrt(x[0] * x[0] + x[1] * x[1])
    if r < r_min:
        raise AxisSingularity(r, r_min)
    e_r = np.array([x[0] / r, x[1] / r, 0.0])
    e_par = np.array([-x[1] / r, x[0] / r, 0.0])
    return r, float(x[2]), e_r, e_par, np.array([0.0, 0.0, 1.0])


def field_sample(model, x):
    """(B, |B|, grad|B|, E) at one point."""
    if isinstance(model, UniformFieldModel):
        B = np.asarray(model.B0, float)
        E = np.asarray(model.E0, float)
        return B, float(np.linalg.norm(B)), np.zeros(3), E
    r, z, e_r, e_par, e_z = frame(x, model.r_min)
    bb = model.b(r, z)
    if bb <= 0.0:
        raise DomainError(bb)
    inv_eps = 1.0 / model.epsilon
    absB = bb * inv_eps
    B = absB * e_par
    grad_b = model.db_dr(r, z) * e_r + model.db_dz(r, z) * e_z
    E = model.E_r(r, z) * e_r + model.E_z(r, z) * e_z
    return B, absB, grad_b * inv_eps, E


def jacobian(model, x):
    """B'(x) of a ToroidalFieldModel at one point, in closed form."""
    r, z, e_r, e_par, e_z = frame(x, model.r_min)
    grad_b = model.db_dr(r, z) * e_r + model.db_dz(r, z) * e_z
    inv_eps = 1.0 / model.epsilon
    return inv_eps * (np.outer(e_par, grad_b) - (model.b(r, z) / r) * np.outer(e_r, e_par))


def potential(model, x):
    r, z, *_ = frame(x, model.r_min)
    return model.phi(r, z)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def magnetic_moment(x, v, model) -> float:
    B, absB, *_ = field_sample(model, x)
    w = np.cross(np.asarray(v, dtype=float), B)
    return 0.5 * float(_dot(w, w)) / absB**3


def nondegeneracy_sigma(x, v, h, model) -> float:
    """|det| / sigma_max of the rank-one map I + (h^2/4) (v x e) grad|B|^T on the plane."""
    B, absB, grad, _ = field_sample(model, x)
    v = np.asarray(v, dtype=float)
    e = B / absB
    k = 0.25 * h * h
    ks = k * _dot(np.cross(v, e), grad)
    kc = k * (_dot(v, grad) - _dot(v, e) * _dot(e, grad))
    return float(2.0 * abs(1.0 + ks) / (np.hypot(2.0 + ks, kc) + np.hypot(ks, kc)))


def monitor_nondegeneracy(traj):
    """(sigma_min, warnings); the first sample on the axis or off the domain raises."""
    sigma_min = np.inf
    warnings = []
    for t, x, v in zip(traj.t, traj.x, traj.v):
        sig = nondegeneracy_sigma(x, v, traj.h, traj.field)
        sigma_min = min(sigma_min, sig)
        if sig < 0.1:
            warnings.append({"kind": "nondegeneracy", "t": float(t), "sigma": sig})
    return float(sigma_min), warnings


def observables(traj):
    """(r, z, vpar, mu, energy) arrays, one row at a time."""
    model = traj.field
    n = len(traj)
    r, z, vpar, mu, energy = (np.empty(n) for _ in range(5))
    for i in range(n):
        x = traj.x[i]
        v = traj.v[i]
        r[i], z[i], _, e_par, _ = frame(x, model.r_min)
        vpar[i] = float(_dot(e_par, v))
        B, absB, *_ = field_sample(model, x)
        w = np.cross(v, B / absB)
        mu[i] = _dot(w, w) / absB * 0.5
        energy[i] = 0.5 * float(_dot(v, v)) + potential(model, x)
    return r, z, vpar, mu, energy


def check_field(model, probes, delta):
    """check_field's report, one probe at a time with seven single-point samples each.

    A worst value is kept with max(), which skips NaN, so this oracle
    defines the report only where every value is a number.
    """
    probes = np.asarray(probes, dtype=float)
    worst_grad = 0.0
    worst_epar_e = 0.0
    worst_curl = 0.0
    worst_div = 0.0
    min_b = np.inf
    eye = np.eye(3)
    for p in probes:
        r, z, _, e_par, _ = frame(p, model.r_min)
        min_b = min(min_b, model.b(r, z))
        fd_dr = (model.b(r + delta, z) - model.b(r - delta, z)) / (2.0 * delta)
        fd_dz = (model.b(r, z + delta) - model.b(r, z - delta)) / (2.0 * delta)
        for fd, an in ((fd_dr, model.db_dr(r, z)), (fd_dz, model.db_dz(r, z))):
            worst_grad = max(worst_grad, abs(fd - an) / max(1.0, abs(an)))
        _, absB, _, E = field_sample(model, p)
        worst_epar_e = max(worst_epar_e, abs(float(_dot(e_par, E))))
        # central differences of E and B along the coordinate axes
        dE = np.empty((3, 3))
        dB = np.empty((3, 3))
        for k in range(3):
            Bp, _, _, Ep = field_sample(model, p + delta * eye[k])
            Bm, _, _, Em = field_sample(model, p - delta * eye[k])
            dE[k] = (Ep - Em) / (2.0 * delta)
            dB[k] = (Bp - Bm) / (2.0 * delta)
        curl = np.array([dE[1][2] - dE[2][1], dE[2][0] - dE[0][2], dE[0][1] - dE[1][0]])
        worst_curl = max(worst_curl, float(np.max(np.abs(curl))))
        worst_div = max(worst_div, abs(dB[0][0] + dB[1][1] + dB[2][2]) / absB)
    names = ("grad_b", "epar_dot_E", "curl_E", "div_B_rel")
    thresholds = (1e-6, 1e-13, 1e-10, 1e-6)
    worst = (worst_grad, worst_epar_e, worst_curl, worst_div)
    checks = [
        {"name": name, "value": float(v), "threshold": tol, "passed": bool(v <= tol)}
        for name, tol, v in zip(names, thresholds, worst)
    ]
    return {"passed": all(c["passed"] for c in checks), "min_b": float(min_b), "checks": checks}
