"""The array per-sample layers against the scalar oracle, bit for bit, and the CSV bytes."""

from __future__ import annotations

import glob
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
import toroboris as tb
from toroboris import cli
from toroboris.errors import AxisSingularity, DomainError

from conftest import X0, V0
from test_seeded_family import DRAWS, orbit
from uniform_model import UniformFieldModel

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def assert_observables_match(traj):
    obs = tb.observables(traj)
    assert bits(obs.t) == bits(traj.t)
    got = (obs.r, obs.z, obs.vpar, obs.mu, obs.energy)
    for name, g, want in zip(("r", "z", "vpar", "mu", "energy"), got, oracle.observables(traj)):
        assert bits(g) == bits(want), name


def assert_monitor_matches(traj):
    # float equality is exact, and the oracle's floats are the ones reported
    assert tb.monitor_nondegeneracy(traj) == oracle.monitor_nondegeneracy(traj)


def rotated(vec, angle: float):
    c, s = math.cos(angle), math.sin(angle)
    return (c * vec[0] - s * vec[1], s * vec[0] + c * vec[1], vec[2])


def run(model, x0, v0, h: float, variant: str, steps: int = 300):
    mu0 = tb.magnetic_moment(x0, v0, model) if variant == "modified" else 0.0
    cfg = tb.PusherConfig(h=h, variant=variant, mu0=mu0)
    return tb.integrate(x0, v0, model, cfg, steps * h, sample_every=1)


def trajectory(model, xs, vs):
    n = len(xs)
    return tb.Trajectory(
        t=0.1 * np.arange(n), x=np.array(xs, dtype=float), v=np.array(vs, dtype=float),
        h=0.04, field=model, steps_completed=n,
    )


@settings(max_examples=40, deadline=None)
@given(
    angle=st.floats(0.0, 2.0 * math.pi),
    eps=st.sampled_from([1e-2, 1e-3, 1e-4]),
    h=st.sampled_from([0.01, 0.04, 0.1]),
    variant=st.sampled_from(tb.boris.VARIANTS),
    # a0 >= 0, a1 > 0 and a2 >= 0 keep b positive off the axis
    coeffs=st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 1.5), st.floats(0.0, 1.5),
                     st.just(0.0) | st.floats(-0.5, 0.5)),
)
def test_rotated_paper_orbits_match_the_oracle(angle, eps, h, variant, coeffs):
    # standard runs with h far above eps stop at the runaway guard after one sample
    model = tb.ToroidalFieldModel(eps, *coeffs)
    traj = run(model, rotated(X0, angle), rotated(V0, angle), h, variant)
    assert_observables_match(traj)
    assert_monitor_matches(traj)
    sigma = tb.nondegeneracy_sigma(traj.x, traj.v, h, traj.field)
    want = [oracle.nondegeneracy_sigma(x, v, h, traj.field) for x, v in zip(traj.x, traj.v)]
    assert bits(sigma) == bits(want)


def test_standard_run_with_warnings_matches_the_oracle(model_1e3):
    # large standard-Boris steps: eight samples below the warning threshold
    traj = run(model_1e3, X0, V0, 0.04, "standard", steps=500)
    assert len(tb.monitor_nondegeneracy(traj)[1]) == 8
    assert_monitor_matches(traj)
    assert_observables_match(traj)


@pytest.mark.parametrize("phi", [True, False])
@pytest.mark.parametrize("variant", tb.boris.VARIANTS)
def test_callable_model_matches_the_oracle(phi, variant):
    # a model off the defaults, with an electric potential or with c = 0
    model = tb.ToroidalFieldModel(1e-2, a0=1.0, a1=0.5, a2=0.2, c=0.05 if phi else 0.0)
    traj = run(model, X0, V0, 0.05, variant, steps=200)
    assert traj.error is None
    assert_observables_match(traj)
    assert_monitor_matches(traj)
    if not phi:
        obs = tb.observables(traj)
        assert bits(obs.energy) == bits([0.5 * oracle._dot(v, v) for v in traj.v])


def test_uniform_field_matches_the_oracle():
    model = UniformFieldModel(B0=(0.0, 0.0, 50.0), E0=(1.0, 0.0, 0.0))
    traj = run(model, (1.0, 0.5, 0.0), (0.3, 0.2, 0.1), 0.01, "modified", steps=200)
    assert_observables_match(traj)
    assert_monitor_matches(traj)


def test_uniform_field_on_the_axis():
    # the observables need the frame, the monitor does not
    model = UniformFieldModel(B0=(0.0, 0.0, 50.0))
    traj = trajectory(model, [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)], [(0.3, 0.2, 0.1)] * 2)
    with pytest.raises(AxisSingularity) as err:
        tb.observables(traj)
    assert (err.value.r, err.value.r_min) == (0.0, 1e-9)
    assert_monitor_matches(traj)


def per_sample_mu(moment, traj) -> np.ndarray:
    return np.array([moment(x, v, traj.field) for x, v in zip(traj.x, traj.v)])


def raised(f, *args):
    with pytest.raises((AxisSingularity, DomainError)) as err:
        f(*args)
    return type(err.value), err.value.args, vars(err.value)


GOOD, OFF_DOMAIN, ON_AXIS = (0.5, 0.0, 0.5), (0.2, 0.0, 0.1), (1e-12, 0.0, 0.8)
BOTH = (1e-12, 0.0, 0.1)  # on the axis and off the domain: the axis is named


@pytest.mark.parametrize(
    "xs",
    [
        [GOOD, OFF_DOMAIN, GOOD, ON_AXIS],
        [GOOD, ON_AXIS, OFF_DOMAIN],
        [ON_AXIS, GOOD],
        [GOOD, GOOD, OFF_DOMAIN],
        [GOOD, BOTH, OFF_DOMAIN],
    ],
)
def test_first_offending_sample_raises(xs):
    model = tb.ToroidalFieldModel(1e-3, a0=-0.3)  # b = r + z^2 - 0.3 is -0.09 off the domain
    traj = trajectory(model, xs, [V0] * len(xs))
    want = raised(oracle.observables, traj)
    assert raised(tb.observables, traj) == want
    assert raised(per_sample_mu, tb.magnetic_moment, traj) == raised(
        per_sample_mu, oracle.magnetic_moment, traj)
    # the monitor raises what the observables raise
    assert raised(tb.monitor_nondegeneracy, traj) == want
    assert raised(oracle.monitor_nondegeneracy, traj) == want


def test_scalar_calls_match_the_oracle(model_1e3):
    rng = np.random.default_rng(3)
    for p in tb.toroidal_probes(50, seed=5):
        v = rng.normal(size=3)
        assert tb.magnetic_moment(p, v, model_1e3) == oracle.magnetic_moment(p, v, model_1e3)
        got = tb.nondegeneracy_sigma(p, v, 0.04, model_1e3)
        assert got == oracle.nondegeneracy_sigma(p, v, 0.04, model_1e3)
        assert isinstance(got, float)


def test_array_calls_keep_the_leading_shape(model_1e3):
    x = tb.toroidal_probes(12, seed=7).reshape(3, 4, 3)
    v = np.random.default_rng(8).normal(size=(3, 4, 3))
    sigma = tb.nondegeneracy_sigma(x, v, 0.04, model_1e3)
    assert sigma.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        # magnetic_moment takes one point
        mu = tb.magnetic_moment(x[i, j], v[i, j], model_1e3)
        assert mu == oracle.magnetic_moment(x[i, j], v[i, j], model_1e3)
        assert sigma[i, j] == oracle.nondegeneracy_sigma(x[i, j], v[i, j], 0.04, model_1e3)


def mu_forms_apart_in_ulps(traj) -> float:
    """The largest |observables' mu - magnetic_moment| in ulps of 0.5 |v|^2 / |B|.

    Not relative to mu: on modified runs v_perp is at the level of rounding,
    so both forms of mu are rounding noise there.
    """
    mu = per_sample_mu(tb.magnetic_moment, traj)
    _, absB = traj.field.strength(traj.x)
    scale = 0.5 * np.sum(traj.v * traj.v, axis=1) / absB
    return float(np.max(np.abs(tb.observables(traj).mu - mu) / np.spacing(scale)))


@settings(max_examples=60, deadline=None)
@given(
    angle=st.floats(0.0, 2.0 * math.pi),
    eps=st.sampled_from([1e-2, 1e-3, 1e-4]),
    variant=st.sampled_from(tb.boris.VARIANTS),
    coeffs=st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 1.5), st.floats(0.0, 1.5),
                     st.just(0.0) | st.floats(-0.5, 0.5)),
)
def test_the_two_forms_of_mu_agree_to_8_ulps_of_their_scale(angle, eps, variant, coeffs):
    # mu is written twice, on purpose: magnetic_moment's 0.5 |v x B|^2 / |B|**3
    # defines mu0, and observables' |v x e|^2 / |B| / 2 the CSV column (6 ulps seen)
    model = tb.ToroidalFieldModel(eps, *coeffs)
    traj = run(model, rotated(X0, angle), rotated(V0, angle), 0.04, variant)
    assert mu_forms_apart_in_ulps(traj) <= 8


@pytest.mark.parametrize("variant", tb.boris.VARIANTS)
def test_the_two_forms_of_mu_agree_on_the_uniform_field(variant):
    model = UniformFieldModel(B0=(0.3, -1.2, 50.0), E0=(1.0, 0.0, -0.006))
    traj = run(model, (1.0, 0.5, 0.0), (0.3, 0.2, 0.1), 0.01, variant, steps=200)
    assert mu_forms_apart_in_ulps(traj) <= 8


def test_mu0_past_the_overflow_takes_the_overflow_free_form():
    # 0.5 |v x B|^2 / |B|**3 overflows from |B| > 5.6e102 (libm pow) and from
    # ~1.3e154 in |v x B|^2 (a square), and divides by 0 where |B|**3
    # underflows (b = 1e-120 here): mu0 is then |v x e|^2 / (2 |B|)
    for model, error in [(tb.ToroidalFieldModel(1e-104), OverflowError),
                         (tb.ToroidalFieldModel(1e-160), OverflowError),
                         (tb.ToroidalFieldModel(1e-300), OverflowError),
                         (tb.ToroidalFieldModel(1e-3, a0=1e-120, a1=0.0, a2=0.0),
                          ZeroDivisionError)]:
        with np.errstate(over="ignore"), pytest.raises(error):
            oracle.magnetic_moment(X0, V0, model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = tb.magnetic_moment(X0, V0, model)
        B, absB, *_ = oracle.field_sample(model, X0)
        e = B / absB
        u = np.cross(np.asarray(V0, dtype=float), e)
        assert bits(mu) == bits(0.5 * float(oracle._dot(u, u)) / absB), model
    # short of the overflow the scalar form is kept
    model = tb.ToroidalFieldModel(1e-102)
    assert bits(tb.magnetic_moment(X0, V0, model)) == bits(oracle.magnetic_moment(X0, V0, model))


def shipped_orbits() -> list:
    """(model, x0, v0) of every epsilon of the shipped configs that run an orbit."""
    orbits = []
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.json"))):
        with open(path) as f:
            cfg = json.load(f)
        if "x0" not in cfg:
            continue
        field = {k: v for k, v in cfg["field"].items() if k != "preset"}
        epsilons = ([cfg["epsilon"]] if "epsilon" in cfg
                    else cfg.get("eps_list") or [eps for eps, _ in cfg["pairs"]])
        orbits += [(tb.ToroidalFieldModel(eps, **field), cfg["x0"], cfg["v0"]) for eps in epsilons]
    return orbits


def test_mu0_keeps_the_oracle_bits_on_the_family_and_the_shipped_configs():
    orbits = [orbit(i, eps) for i in range(len(DRAWS)) for eps in (1e-2, 1e-3, 2.5e-4)]
    orbits += shipped_orbits()
    assert len(orbits) == 3 * len(DRAWS) + 5
    for model, x0, v0 in orbits:
        assert bits(tb.magnetic_moment(x0, v0, model)) == bits(oracle.magnetic_moment(x0, v0, model))


# ---------------------------------------------------------------------------
# CSV formatting


def per_value_csv(header, *columns) -> str:
    lines = [header] + [",".join(f"{x:.17g}" for x in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 3, 2 * cli._CHUNK_ROWS + 1])
def test_columns_csv_bytes_match_per_value_formatting(n):
    special = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0**60]
    a = np.resize(np.array(special), n)
    b = 0.1 * np.arange(n)
    c = np.random.default_rng(n).normal(size=(n, 3))
    columns = (a, b, *c.T, -a)
    chunks = list(cli._columns_csv("t,a,b,c,d,e", *columns))
    assert len(chunks) == 1 + -(-n // cli._CHUNK_ROWS)
    assert b"".join(chunks) == per_value_csv("t,a,b,c,d,e", *columns).encode()


def test_trajectory_csv_bytes_match_per_value_formatting(model_1e3, tmp_path):
    traj = run(model_1e3, X0, V0, 0.04, "standard", steps=cli._CHUNK_ROWS + 10)
    r, z, vpar, mu, energy = oracle.observables(traj)
    columns = (traj.t, *traj.x.T, *traj.v.T, r, z, vpar, mu, energy)
    want = per_value_csv(cli.TRAJECTORY_HEADER, *columns)
    path = tmp_path / "traj.csv"
    cli._atomic_write(str(path), cli.trajectory_csv(traj))
    assert path.read_bytes() == want.encode()
