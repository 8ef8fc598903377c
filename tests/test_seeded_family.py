"""Criteria 3 and 4 on a seeded family of fields and orbits.

The acceptance suite pins the claims on one orbit in one field, with
a1 = a2 = 1, where a term that drops either coefficient keeps every pinned
bit, in both twins of the step loop alike.  Here the coefficients and the
orbit vary.  The draws are the first five of numpy's default_rng(1), listed
below: r0 in [0.3, 0.9], z0 in [-0.5, 0.5], a phase in [0, 2 pi), v0 in
[-1, 1]^3, a1 and a2 in [0.5, 1.5] and the field's c in [0.05, 0.2], with
a0 = 0 and x0 = (r0 cos(phase), r0 sin(phase), z0).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import toroboris as tb

SEED = 1
# (r0, z0, phase, v0, a1, a2, c), in the order default_rng(SEED) draws them
DRAWS = [
    (0.6070929748201541, 0.4504636963259353, 0.9057815605287021,
     (0.8972988942744877, -0.3763370959790291, -0.1533471020548487),
     1.3277025938204416, 0.9091991363691613, 0.13243905315095894),
    (0.31653546794584103, 0.2535131086748066, 3.381254158776311,
     (-0.34053656700181567, 0.5768574068568086, -0.39361034141671003),
     0.9534978894806515, 0.6340416972471647, 0.11046694796706939),
    (0.42207314440568977, -0.2376866595581505, 4.714680286095766,
     (-0.43918248402792015, -0.029618051136729884, 0.9614743996024773),
     1.4616571936637868, 1.2247899407735336, 0.13118402833211515),
    (0.46613472242722254, -0.33934799122487314, 6.094221105379693,
     (0.03213717109575742, -0.7682687750584594, 0.24697951107500082),
     1.276683114342298, 1.1130033010530405, 0.18759465571863543),
    (0.3237557259985217, 0.028589263260021647, 2.8860924704059316,
     (-0.8753008417002488, 0.2826563382787499, 0.7052656769613135),
     1.092941018104284, 0.7600974477372232, 0.17598222815471132),
]
# Draw 4's slow orbit comes to r = 0.015 of the axis, where b is 0.045 (0.354 at
# the start): its gyroradius, about 1e-3 / 0.045 at epsilon 1e-3, exceeds r, so
# the orbit leaves the strong-field regime both claims assume.  Both fail there:
# slopes 2.33, -0.27 and 0.20, and ratios 3.33, 0.87 and 1.04.
OUT_OF_REGIME = pytest.mark.xfail(
    strict=True, reason="the orbit's gyroradius exceeds its distance to the axis")
CASES = [pytest.param(i, marks=OUT_OF_REGIME if i == 4 else ()) for i in range(len(DRAWS))]


def orbit(i: int, epsilon: float):
    r0, z0, phase, v0, a1, a2, c = DRAWS[i]
    model = tb.ToroidalFieldModel(epsilon, a0=0.0, a1=a1, a2=a2, c=c)
    return model, (r0 * math.cos(phase), r0 * math.sin(phase), z0), v0


def test_the_listed_draws_are_the_seeds():
    rng = np.random.default_rng(SEED)
    for draw in DRAWS:
        r0, z0, phase = rng.uniform(0.3, 0.9), rng.uniform(-0.5, 0.5), rng.uniform(0, 2 * math.pi)
        v0 = tuple(rng.uniform(-1, 1, 3).tolist())
        a1, a2, c = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(0.05, 0.2)
        assert draw == (r0, z0, phase, v0, a1, a2, c)


@pytest.mark.parametrize("i", CASES)
def test_criterion_3_on_the_family(i):
    model, x0, v0 = orbit(i, 1e-3)
    base = tb.ExperimentSpec(field=model, x0=x0, v0=v0, h=0.04, t_final=500.0, c=0.5)
    rep, _ = tb.convergence_study(base, "scaled_pairs", pairs=[(1e-3, 0.04), (2.5e-4, 0.02)])
    for comp, slope in rep["slopes"].items():
        assert 1.7 <= slope <= 2.3, (comp, slope)


@pytest.mark.parametrize("i", CASES)
def test_criterion_4_on_the_family(i):
    model, x0, v0 = orbit(i, 1e-2)
    rep, _ = tb.theorem1_suite(model, [1e-2, 1e-3], 0.5, x0, v0)
    (band,) = rep["bands"]
    for comp, ratio in rep["ratios"][0].items():
        assert band[0] <= ratio <= band[1], (comp, ratio)
