"""Per-sample scalar definitions of the observables, the moment and sigma.

These are the per-row loops that the array code in toroboris replaced,
kept here verbatim, with their own scalar frame and field sample, as the
oracle the array code must match to the last bit.  They read the models'
profile methods and parameters and call nothing else in the package.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

import toroboris as tb
from toroboris.errors import AxisSingularity, DomainError, Unsupported


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
    """(B, |B|, grad|B|, E, B') at one point."""
    if isinstance(model, tb.UniformFieldModel):
        B = np.asarray(model.B0, float)
        E = np.asarray(model.E0, float)
        return B, float(np.linalg.norm(B)), np.zeros(3), E, np.zeros((3, 3))
    r, z, e_r, e_par, e_z = frame(x, model.r_min)
    bb = model.b(r, z)
    if bb <= model.b_min:
        raise DomainError(bb, model.b_min)
    inv_eps = 1.0 / model.epsilon
    absB = bb * inv_eps
    B = absB * e_par
    grad_b = model.db_dr(r, z) * e_r + model.db_dz(r, z) * e_z
    E = model.E_r(r, z) * e_r + model.E_z(r, z) * e_z
    jacB = inv_eps * (np.outer(e_par, grad_b) - (bb / r) * np.outer(e_r, e_par))
    return B, absB, grad_b * inv_eps, E, jacB


def potential(model, x):
    if not isinstance(model, tb.ToroidalFieldModel):
        raise Unsupported("only toroidal models carry a scalar potential")
    r, z, *_ = frame(x, model.r_min)
    return model.phi(r, z)


def magnetic_moment(x, v, model) -> float:
    B, absB, *_ = field_sample(model, x)
    w = np.cross(np.asarray(v, dtype=float), B)
    return 0.5 * float(w @ w) / absB**3


def _perp_basis(e):
    a = np.array([1.0, 0.0, 0.0]) if abs(e[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    u1 = a - (a @ e) * e
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(e, u1)
    return u1, u2


def nondegeneracy_sigma(x, v, h, model) -> float:
    B, absB, _, _, jacB = field_sample(model, x)
    v = np.asarray(v, dtype=float)
    e = B / absB
    u1, u2 = _perp_basis(e)
    quarter_h2 = 0.25 * h * h
    cols = []
    for u in (u1, u2):
        w = u + quarter_h2 * np.cross(v, jacB @ u)
        cols.append((float(u1 @ w), float(u2 @ w)))
    a = np.array(cols).T
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def monitor_nondegeneracy(traj):
    sigma_min = np.inf
    warnings = []
    for t, x, v in zip(traj.t, traj.x, traj.v):
        try:
            sig = nondegeneracy_sigma(x, v, traj.h, traj.field)
        except (AxisSingularity, DomainError):
            continue
        sigma_min = min(sigma_min, sig)
        if sig < 0.1:
            warnings.append({"kind": "nondegeneracy", "t": float(t), "sigma": sig})
    return (float(sigma_min) if np.isfinite(sigma_min) else None), warnings


def observables(traj):
    """(r, z, vpar, mu, energy) arrays, one row at a time."""
    model = traj.field
    n = len(traj)
    r, z, vpar, mu, energy = (np.empty(n) for _ in range(5))
    r_min = getattr(model, "r_min", 1e-9)
    for i in range(n):
        x = traj.x[i]
        v = traj.v[i]
        r[i], z[i], _, e_par, _ = frame(x, r_min)
        vpar[i] = float(e_par @ v)
        mu[i] = magnetic_moment(x, v, model)
        kinetic = 0.5 * float(v @ v)
        try:
            energy[i] = kinetic + potential(model, x)
        except Unsupported:
            energy[i] = kinetic
    return r, z, vpar, mu, energy
