"""A constant field for the exact-orbit checks: a circle, a straight line, a parabola.

The package's one field family is ToroidalFieldModel; this model carries
what the package reads from a model (bemod, sample, strength, r_min and
phi), so integrate, observables and the monitor run on it through the
Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from toroboris.geometry import FieldSample, _scalar


@dataclass(frozen=True)
class UniformFieldModel:
    """Constant B and E, with E orthogonal to B (the package-wide assumption E_par = 0)."""

    B0: tuple[float, float, float]
    E0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    # the frame the observables take is undefined this close to the axis
    r_min = 1e-9

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

    def phi(self, r, z):
        """No potential: the energy the observables report is the kinetic one."""
        return np.zeros(np.shape(r))
