"""Frame, field evaluation and self-validation checks."""

from __future__ import annotations

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toroboris as tb
from toroboris.errors import AxisSingularity, DomainError

import scalar_oracle
from conftest import X0
from uniform_model import UniformFieldModel


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# frame


def test_frame_symmetry_case():
    fr = tb.frame((1.0, 0.0, 0.0))
    assert fr.r == 1.0 and fr.z == 0.0
    np.testing.assert_array_equal(fr.e_r, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(fr.e_par, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(fr.e_z, [0.0, 0.0, 1.0])


def test_frame_benchmark_point():
    fr = tb.frame(X0)
    assert abs(fr.r - 5 / 12) < 1e-15
    assert fr.z == 0.5
    np.testing.assert_allclose(fr.e_r, [0.8, 0.6, 0.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(fr.e_par, [-0.6, 0.8, 0.0], rtol=0, atol=1e-15)


def test_frame_on_axis_raises():
    with pytest.raises(AxisSingularity):
        tb.frame((0.0, 0.0, 1.0))
    with pytest.raises(AxisSingularity):
        tb.frame((1e-12, 0.0, 0.5), r_min=1e-9)


@settings(max_examples=200)
@given(
    x1=st.floats(-5, 5),
    x2=st.floats(-5, 5),
    x3=st.floats(-5, 5),
)
def test_frame_orthonormality(x1, x2, x3):
    if np.hypot(x1, x2) < 1e-6:
        return
    fr = tb.frame((x1, x2, x3))
    vecs = [fr.e_r, fr.e_par, fr.e_z]
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            assert abs(float(vecs[i] @ vecs[j]) - want) <= 1e-14
    assert np.max(np.abs(np.cross(fr.e_r, fr.e_par) - fr.e_z)) <= 1e-14
    recon = fr.r * fr.e_r + fr.z * fr.e_z
    assert np.max(np.abs(recon - np.array([x1, x2, x3]))) <= 1e-13 * max(
        1.0, abs(x1), abs(x2), abs(x3)
    )


# Components that stress the bit pins below: signed zeros, infinities, NaNs of
# both signs and products that overflow.
EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e300, -1e300, 1.5, -2.25)


def edge_vectors(n, seed):
    """n vectors of EDGE_VALUES components, about a third replaced by random ones."""
    rng = np.random.default_rng(seed)
    v = rng.choice(EDGE_VALUES, size=(n, 3))
    mixed = rng.random((n, 3)) < 0.3
    v[mixed] = rng.normal(scale=10.0, size=mixed.sum())
    return v


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def raising_outcome(fn, *args):
    """fn(*args) under raising errstate: ("ok", result) or ("raised", exception type)."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            return "ok", fn(*args)
        except FloatingPointError as e:
            return "raised", type(e)


def test_cross3_has_the_bits_of_np_cross():
    a, b = edge_vectors(400, seed=1), edge_vectors(400, seed=2)
    with np.errstate(all="ignore"):
        assert same_bits(tb.geometry.cross3(a, b), np.cross(a, b))
        # broadcasting one vector against many, as nondegeneracy_sigma's basis does
        assert same_bits(tb.geometry.cross3(a[0], b), np.cross(a[0], b))
    for i in range(len(a)):
        got = raising_outcome(tb.geometry.cross3, a[i], b[i])
        want = raising_outcome(np.cross, a[i], b[i])
        assert got[0] == want[0], (a[i], b[i])
        assert same_bits(got[1], want[1]) if got[0] == "ok" else got[1] is want[1]
    got, want = raising_outcome(tb.geometry.cross3, a, b), raising_outcome(np.cross, a, b)
    assert got[0] == want[0] == "raised" and got[1] is want[1]


def stacked_frame(x, r):
    """geometry._frame as three np.stack calls, the form its column fill replaced."""
    x1, x2 = x[..., 0][()], x[..., 1][()]
    zero = np.zeros_like(r)
    return (
        np.stack([x1 / r, x2 / r, zero], axis=-1),
        np.stack([-x2 / r, x1 / r, zero], axis=-1),
        np.stack([zero, zero, zero + 1.0], axis=-1),
    )


def test_frame_has_the_bits_of_the_stacked_form():
    x = edge_vectors(400, seed=3)
    with np.errstate(all="ignore"):
        r = tb.geometry._radius(x)
        fr = tb.geometry._frame(x, r)
        assert all(map(same_bits, (fr.e_r, fr.e_par, fr.e_z), stacked_frame(x, r)))
    assert same_bits(fr.r, r) and same_bits(fr.z, x[:, 2])
    for i in range(len(x)):
        with np.errstate(all="ignore"):
            r = tb.geometry._radius(x[i])
        got = raising_outcome(lambda: tb.geometry._frame(x[i], r))
        want = raising_outcome(lambda: stacked_frame(x[i], r))
        assert got[0] == want[0], x[i]
        if got[0] == "ok":
            fr = got[1]
            assert all(map(same_bits, (fr.e_r, fr.e_par, fr.e_z), want[1]))
            assert isinstance(fr.r, float) and isinstance(fr.z, float)
        else:
            assert got[1] is want[1]


# ---------------------------------------------------------------------------
# eval_field


def test_eval_field_benchmark_values(model_1e3):
    s = tb.eval_field(model_1e3, X0)
    assert abs(s.absB - (2 / 3) / 1e-3) <= 1e-9
    np.testing.assert_allclose(s.B, [-400.0, 1600.0 / 3.0, 0.0], rtol=1e-12)
    np.testing.assert_allclose(s.E, [0.04, 0.03, float(F(1, 24))], rtol=1e-12)
    np.testing.assert_allclose(s.gradAbsB, [800.0, 600.0, 1000.0], rtol=1e-12)


def test_eval_field_zero_electric_coefficient():
    m = tb.ToroidalFieldModel(1e-3, c=0.0)
    s = tb.eval_field(m, (0.7, -0.3, 0.4))
    np.testing.assert_array_equal(s.E, [0.0, 0.0, 0.0])


def test_eval_field_e_perpendicular_to_b(model_1e3):
    for p in tb.toroidal_probes(100, seed=2):
        s = tb.eval_field(model_1e3, p)
        e_par = s.B / s.absB
        assert abs(float(e_par @ s.E)) <= 1e-13


def test_eval_field_sample_invariants(model_1e3):
    for p in tb.toroidal_probes(20, seed=3):
        s = tb.eval_field(model_1e3, p)
        assert abs(np.linalg.norm(s.B) - s.absB) <= 1e-14 * s.absB
        frp = tb.frame(p)
        assert np.max(np.abs(s.B / s.absB - frp.e_par)) <= 1e-13


@pytest.mark.parametrize("ranges", [
    # negative radii were probed mirrored to |r|; a reversed range raised numpy's
    # "high - low < 0"
    {"r_range": (-1.0, -0.25)},
    {"r_range": (0.0, 1.0)},
    {"r_range": (1.0, 0.25)},
    {"z_range": (0.75, -0.75)},
    {"r_range": (math.nan, 1.0)},
])
def test_toroidal_probes_rejects_bad_ranges(ranges):
    with pytest.raises(ValueError, match="probe ranges"):
        tb.toroidal_probes(5, **ranges)


def test_toroidal_probes_accept_degenerate_ranges():
    p = tb.toroidal_probes(4, r_range=(0.5, 0.5), z_range=(-0.1, -0.1))
    np.testing.assert_allclose(np.hypot(p[:, 0], p[:, 1]), 0.5, rtol=1e-15)
    assert (p[:, 2] == -0.1).all()


def test_eval_field_domain_guard():
    m = tb.ToroidalFieldModel(1e-3, a0=-1.0)
    with pytest.raises(DomainError):
        tb.eval_field(m, X0)  # profile value is -1/3 here


def test_jacobian_matches_finite_differences(model_1e3):
    rng = np.random.default_rng(11)
    delta = 1e-6
    for p in tb.toroidal_probes(12, seed=4):
        s = tb.eval_field(model_1e3, p)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        fd = (
            tb.eval_field(model_1e3, p + delta * u).B
            - tb.eval_field(model_1e3, p - delta * u).B
        ) / (2 * delta)
        want = s.jacB @ u
        scale = max(np.linalg.norm(want), 1e-3 * s.absB)
        assert np.linalg.norm(fd - want) <= 1e-5 * scale


def test_axisymmetry(model_1e3):
    rng = np.random.default_rng(5)
    for p in tb.toroidal_probes(10, seed=6):
        theta = rng.uniform(0, 2 * np.pi)
        R = rot_z(theta)
        s0 = tb.eval_field(model_1e3, p)
        s1 = tb.eval_field(model_1e3, R @ p)
        assert np.max(np.abs(s1.B - R @ s0.B)) <= 1e-12 * s0.absB
        assert np.max(np.abs(s1.E - R @ s0.E)) <= 1e-12


# ---------------------------------------------------------------------------
# potential


def test_potential_benchmark_value(model_1e3):
    # phi = -c r z with c = 0.1 at the benchmark point
    assert abs(tb.potential(model_1e3, X0) - float(-F(1, 48))) <= 1e-15


def test_potential_zero_coefficient():
    m = tb.ToroidalFieldModel(1e-3, c=0.0)
    assert tb.potential(m, (0.9, 0.1, -0.3)) == 0.0


def test_potential_gradient_matches_field(model_1e3):
    delta = 1e-6
    eye = np.eye(3)
    for p in tb.toroidal_probes(20, seed=8):
        s = tb.eval_field(model_1e3, p)
        grad = np.array(
            [
                (tb.potential(model_1e3, p + delta * eye[k]) - tb.potential(model_1e3, p - delta * eye[k]))
                / (2 * delta)
                for k in range(3)
            ]
        )
        assert np.max(np.abs(-grad - s.E)) <= 1e-6


# ---------------------------------------------------------------------------
# check_field


def by_name(report) -> dict:
    return {c["name"]: c for c in report["checks"]}


def test_check_field_benchmark_passes(model_1e3):
    probes = tb.toroidal_probes(50, seed=1)
    report = tb.check_field(model_1e3, probes, delta=1e-6)
    assert report["passed"]
    checks = by_name(report)
    assert list(checks) == ["grad_b", "epar_dot_E", "curl_E", "div_B_rel"]
    assert checks["grad_b"]["value"] <= 1e-6
    assert checks["epar_dot_E"]["value"] <= 1e-13
    assert checks["curl_E"]["value"] <= 1e-10
    assert checks["div_B_rel"]["value"] <= 1e-6
    assert report["min_b"] > 0.0


class WrongPartial(tb.ToroidalFieldModel):
    def db_dz(self, r, z):
        return 4.0 * self.a2 * z  # off by a factor 2


def test_check_field_detects_wrong_partial():
    bad = WrongPartial(1e-3)
    report = tb.check_field(bad, tb.toroidal_probes(20, seed=9), delta=1e-6)
    assert not report["passed"]
    assert not by_name(report)["grad_b"]["passed"]


def test_check_field_zero_e_curl_trivial():
    m = tb.ToroidalFieldModel(1e-3, c=0.0)
    report = tb.check_field(m, tb.toroidal_probes(20, seed=10), delta=1e-6)
    assert by_name(report)["curl_E"]["value"] <= 1e-13


def test_check_field_delta_range(model_1e3):
    with pytest.raises(ValueError):
        tb.check_field(model_1e3, tb.toroidal_probes(5, seed=1), delta=1e-2)


def test_check_field_nan_fails_its_check():
    # |B| overflows at every probe, so the differences of B and of its
    # modulus are NaN; a NaN is the worst value and fails
    m = tb.ToroidalFieldModel(1e-3, a1=1e308, a2=1e308)
    with np.errstate(all="ignore"):
        report = tb.check_field(m, tb.toroidal_probes(5, seed=1))
    checks = by_name(report)
    assert not report["passed"]
    for name in ("grad_b", "div_B_rel"):
        assert math.isnan(checks[name]["value"]) and not checks[name]["passed"], name


def test_nan_profile_is_off_the_domain():
    # a1 r is +inf and a2 z^2 -inf, so b is NaN at every probe: a domain test
    # written b <= 0 is false for NaN and would count the points as in the
    # domain, as check_field once did, reporting min_b inf
    m = tb.ToroidalFieldModel(1e-3, a1=1e308, a2=-3e307)
    probes = tb.toroidal_probes(5, seed=1, r_range=(2, 3), z_range=(2.5, 2.9))
    with np.errstate(all="ignore"):
        for check in (m.sample, m.strength, lambda x: tb.check_field(m, x)):
            with pytest.raises(DomainError, match="b=nan"):
                check(probes)


@pytest.mark.parametrize("n", [0, 1, 50])
def test_check_field_samples_seven_times(monkeypatch, model_1e3, n):
    sample = tb.ToroidalFieldModel.sample
    shapes = []

    def counted(self, x):
        shapes.append(np.shape(x))
        return sample(self, x)

    monkeypatch.setattr(tb.ToroidalFieldModel, "sample", counted)
    tb.check_field(model_1e3, tb.toroidal_probes(n, seed=1))
    assert shapes == [(n, 3)] * 7


def test_check_field_raises_the_first_probes_error():
    # probe 0 leaves the domain only at x + delta e_x, probe 1 at its centre;
    # probe 0 comes first, as it would in a pass over the probes one by one
    m = tb.ToroidalFieldModel(1.0, a0=-1.0, a1=1.0, a2=0.0, c=0.0)
    probes = [[-1.0 - 1e-4, 0.0, 0.0], [0.5, 0.0, 0.0]]
    with pytest.raises(DomainError) as e:
        tb.check_field(m, probes, delta=1e-3)
    assert e.value.b == pytest.approx(-9e-4)


def outcome(check):
    try:
        return json.dumps(check())
    except (AxisSingularity, DomainError) as e:
        return type(e).__name__, str(e)


finite = st.floats(-10.0, 10.0, allow_subnormal=False)
ordered = st.tuples(finite, finite).map(sorted)
# toroidal_probes takes radii above 0; below r_min = 0.1 they reach the axis check
radius = st.floats(0.0, 10.0, exclude_min=True, allow_subnormal=False)
radii = st.tuples(radius, radius).map(sorted)


@given(
    eps=st.floats(1e-6, 1.0),
    coefs=st.tuples(finite, finite, finite, finite),
    n=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
    r_range=radii,
    z_range=ordered,
    r_min=st.sampled_from([1e-9, 0.1]),
    delta=st.floats(1e-8, 1e-3),
)
@settings(max_examples=150, deadline=None)
def test_check_field_matches_the_per_probe_oracle(
    eps, coefs, n, seed, r_range, z_range, r_min, delta
):
    # coefficients and coordinates of at most 10 in magnitude keep every
    # value finite, where the oracle's max() defines the report
    a0, a1, a2, c = coefs
    m = tb.ToroidalFieldModel(eps, a0=a0, a1=a1, a2=a2, c=c, r_min=r_min)
    probes = tb.toroidal_probes(n, seed=seed, r_range=r_range, z_range=z_range)
    got = outcome(lambda: tb.check_field(m, probes, delta=delta))
    assert got == outcome(lambda: scalar_oracle.check_field(m, probes, delta))
    assert "NaN" not in got


def test_probes_deterministic():
    a = tb.toroidal_probes(10, seed=42)
    b = tb.toroidal_probes(10, seed=42)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# uniform model


def test_uniform_model_sample():
    m = UniformFieldModel(B0=(0.0, 0.0, 2.0), E0=(0.5, 0.0, 0.0))
    s = tb.eval_field(m, (3.0, 4.0, 5.0))
    np.testing.assert_array_equal(s.B, [0.0, 0.0, 2.0])
    assert s.absB == 2.0
    np.testing.assert_array_equal(s.gradAbsB, np.zeros(3))
    np.testing.assert_array_equal(s.jacB, np.zeros((3, 3)))


def test_uniform_model_rejects_parallel_e():
    with pytest.raises(ValueError):
        UniformFieldModel(B0=(0.0, 0.0, 1.0), E0=(0.1, 0.0, 0.5))


def test_model_epsilon_validation():
    with pytest.raises(ValueError):
        tb.ToroidalFieldModel(0.0)
    with pytest.raises(ValueError):
        tb.ToroidalFieldModel(1.5)


@pytest.mark.parametrize("bound", [
    {"r_min": math.nan}, {"r_min": math.inf}, {"r_min": 0.0},
])
def test_model_bounds_must_be_finite(bound):
    # "r < nan" is always false: the axis check could never fire
    with pytest.raises(ValueError, match=next(iter(bound))):
        tb.ToroidalFieldModel(1e-3, **bound)
