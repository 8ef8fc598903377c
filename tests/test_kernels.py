"""The C loops against the Python reference loops, and their loader."""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toroboris as tb
from toroboris import _kernels, cli, drift
from toroboris.drift import DriftState
from toroboris.errors import AxisSingularity, DomainError

from conftest import X0, V0, force_fallback, python_backend

HAVE_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


def run_both(x0, v0, model, cfg, t_final, sample_every=1):
    """integrate through the C kernel and through the Python loop."""
    compiled = tb.integrate(x0, v0, model, cfg, t_final, sample_every=sample_every)
    if HAVE_CC:
        assert _kernels.BACKEND == "c", _kernels.FALLBACK_REASON
    with python_backend():
        python = tb.integrate(x0, v0, model, cfg, t_final, sample_every=sample_every)
    return compiled, python


def assert_bitwise_equal(a, b):
    assert (a.error, len(a), a.steps_completed) == (b.error, len(b), b.steps_completed)
    for name in ("t", "x", "v"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def rotate_z(vec, angle):
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = vec
    return np.array([c * x - s * y, s * x + c * y, z])


# ---------------------------------------------------------------------------
# bit identity


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(1e-4, 1e-1),
    h=st.floats(1e-4, 0.1),
    n=st.integers(2, 400),
    every=st.integers(1, 7),
    variant=st.sampled_from(("standard", "modified")),
    coeffs=st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 1.5), st.floats(0.0, 1.5), st.floats(-0.5, 0.5)),
    angle=st.floats(0.0, 2.0 * math.pi),
    dx=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
    dv=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
)
def test_c_kernel_matches_python_loop(eps, h, n, every, variant, coeffs, angle, dx, dv):
    model = tb.ToroidalFieldModel(eps, *coeffs)
    x0 = rotate_z(X0, angle) + dx
    v0 = rotate_z(V0, angle) + dv
    mu0 = tb.magnetic_moment(x0, v0, model) if variant == "modified" else 0.0
    cfg = tb.PusherConfig(h=h, variant=variant, mu0=mu0)
    assert_bitwise_equal(*run_both(x0, v0, model, cfg, n * h, sample_every=every))


def _abort_case(tag):
    if tag == "axis_singularity":
        # no grad-B force, inward electric drift
        model = tb.ToroidalFieldModel(1e-3, r_min=0.416)
        return model, tb.PusherConfig(h=0.04, variant="modified", mu0=0.0), 400.0
    if tag == "domain_error":
        # the drift carries the orbit into b = r + z^2 - 0.4 < 0, at step 2831
        model = tb.ToroidalFieldModel(1e-3, a0=-0.4)
        mu0 = tb.magnetic_moment(X0, V0, model)
        return model, tb.PusherConfig(h=0.04, variant="modified", mu0=mu0), 1000.0
    # a strong electric field in a weak magnetic one speeds the orbit past the
    # bound 10 (|v0| + 1) after ~90 steps
    model = tb.ToroidalFieldModel(1.0, c=10.0)
    mu0 = tb.magnetic_moment(X0, V0, model)
    return model, tb.PusherConfig(h=0.04, variant="modified", mu0=mu0), 40.0


@pytest.mark.parametrize("tag", ["axis_singularity", "domain_error", "sanity_guard"])
def test_both_backends_abort_at_the_same_step(tag):
    model, cfg, t_final = _abort_case(tag)
    compiled, python = run_both(X0, V0, model, cfg, t_final)
    assert compiled.error == tag
    assert 0 < compiled.steps_completed < round(t_final / cfg.h)
    assert_bitwise_equal(compiled, python)


@pytest.mark.parametrize("eps", [1e-160, 1e-300])
def test_non_finite_step_trips_the_runaway_guard(eps):
    # (h/2)|B| squared overflows, so the first step is NaN; "norm > bound" let it
    # through and the run returned NaN positions with no error
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    compiled, python = run_both(X0, V0, tb.ToroidalFieldModel(eps), cfg, 0.4)
    assert (compiled.error, compiled.steps_completed) == ("sanity_guard", 0)
    assert_bitwise_equal(compiled, python)


@pytest.mark.parametrize("tag", [None, "axis_singularity", "domain_error", "sanity_guard",
                                 "non_finite"])
def test_sample_times_are_whole_steps_on_both_backends(tag):
    # both backends now share one formula for the times, which the bitwise
    # comparisons above cannot catch: pin it
    if tag is None:
        model = tb.ToroidalFieldModel(1e-3)
        cfg, t_final = tb.PusherConfig(h=0.04, variant="standard"), 40.0
    elif tag == "non_finite":
        model, cfg, t_final = tb.ToroidalFieldModel(1e-160), tb.PusherConfig(h=0.04), 0.4
    else:
        model, cfg, t_final = _abort_case(tag)
    for traj in run_both(X0, V0, model, cfg, t_final, sample_every=3):
        steps = traj.steps_completed
        assert traj.error == ("sanity_guard" if tag == "non_finite" else tag)
        assert traj.t.tolist() == [i * cfg.h for i in range(0, steps + 1, 3)]
        assert len(traj) == steps // 3 + 1 == len(traj.x) == len(traj.v)


@needs_cc
def test_compiled_loop_rejects_bad_buffers():
    loop = _kernels.compiled_kernel().two_step_loop
    x, d = np.array(X0), np.zeros(3)
    args = (10, 1, 0.04, 0.0, 10.0, x, d, tb.ToroidalFieldModel(1e-3))
    with pytest.raises(ValueError):  # 10 steps sampled every step need 11 rows
        loop(*args, np.empty((10, 3)), np.empty((10, 3)))
    with pytest.raises(ValueError):  # out_x and out_v of one shape
        loop(*args, np.empty((11, 3)), np.empty((12, 3)))
    with pytest.raises(ctypes.ArgumentError):  # wrong dtype never reaches C
        loop(*args, np.empty((11, 3), dtype=np.float32), np.empty((11, 3)))


def drift_both(s0, model, cfg, sample_times):
    """drift_integrate through the C loop and through _rk4_loop: result bytes or error."""
    def outcome():
        try:
            tr = tb.drift_integrate(s0, model, cfg, sample_times)
        except Exception as e:  # noqa: BLE001 - the two backends must fail alike
            return type(e), str(e)
        return tuple(getattr(tr, a).tobytes() for a in ("t", "r", "z", "vpar"))

    compiled = outcome()
    if HAVE_CC:
        assert _kernels.BACKEND == "c", _kernels.FALLBACK_REASON
    with python_backend():
        python = outcome()
    return [compiled, python]


@st.composite
def sample_grids(draw, eps, dtau):
    """A regular grid whose stride is a whole number of RK4 steps (so every
    step is a full one) or a non-integer one (so every interval ends on a
    shortened substep), or an arbitrary nondecreasing grid."""
    t0 = draw(st.floats(-50.0, 50.0))
    if draw(st.booleans()):
        whole = draw(st.integers(5, 40))
        frac = draw(st.just(0.0) | st.floats(0.05, 0.95))
        n = draw(st.integers(3, 10))
        return t0 + np.arange(n) * ((whole + frac) * dtau / eps)
    gaps = draw(st.lists(st.floats(0.0, 40.0 * dtau / eps), min_size=3, max_size=8))
    return t0 + np.cumsum([0.0, *gaps])


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    eps=st.floats(1e-4, 1e-1),
    dtau=st.floats(1e-3, 1e-2),
    coeffs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.5), st.floats(0.0, 3.0), st.floats(-2.0, 2.0)),
    state=st.tuples(st.floats(0.3, 1.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0)),
    muhat=st.floats(0.0, 5.0),
)
def test_c_drift_matches_python_rk4_loop(data, eps, dtau, coeffs, state, muhat):
    # A last-bit change in one stage is mostly absorbed by y + w k, so the
    # ranges favour large right-hand sides, a z^2 term that can dominate b and
    # tens of steps per example; a2 * (zt * zt) in the C source fails here.
    model = tb.ToroidalFieldModel(eps, *coeffs)
    cfg = tb.DriftConfig(mu0=muhat * eps, dtau=dtau)
    times = data.draw(sample_grids(eps, dtau))
    compiled, python = drift_both(DriftState(*state), model, cfg, times)
    assert compiled == python


def test_c_drift_matches_python_on_the_default_grid(model_1e3, mu0_1e3):
    # a stride of 7 that does not divide t = 100: the last output interval is
    # shortened to land on t_final
    cfg = tb.DriftConfig(mu0=mu0_1e3, dtau=1e-4)
    times = [k * 7.0 for k in range(15)] + [100.0]
    compiled, python = drift_both(tb.drift_init(X0, V0, model_1e3), model_1e3, cfg, times)
    assert compiled == python


class SteeperProfile(tb.ToroidalFieldModel):
    """The paper field with one profile method overridden, as a library user may write it."""

    def db_dz(self, r, z):
        return 2.5 * self.a2 * z


def test_a_subclass_runs_its_own_methods_on_both_backends():
    # the C loops inline the base closed form, so a subclass runs on the Python
    # loops whichever backend is loaded
    model = SteeperProfile(1e-3)
    mu0 = tb.magnetic_moment(X0, V0, model)
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0)
    compiled, python = run_both(X0, V0, model, cfg, 4.0)
    assert_bitwise_equal(compiled, python)
    base = tb.integrate(X0, V0, tb.ToroidalFieldModel(1e-3), cfg, 4.0)
    assert not np.array_equal(python.x, base.x)  # the override is in effect
    drift_cfg = tb.DriftConfig(mu0=mu0, dtau=1e-4)
    compiled, python = drift_both(tb.drift_init(X0, V0, model), model, drift_cfg, [0.0, 50.0])
    assert compiled == python


def _drift_abort_case(tag):
    if tag == "axis":
        # no grad-B force: the electric drift carries r~ inward past r_min
        model = tb.ToroidalFieldModel(1e-3, r_min=0.416)
        return tb.drift_init(X0, V0, model), model, 0.0, AxisSingularity
    if tag == "domain":
        # z~ falls through 0, where b = r~ + z~^2 - 0.5 drops below 0
        model = tb.ToroidalFieldModel(1e-3, a0=-0.5)
        return tb.drift_init(X0, V0, model), model, tb.magnetic_moment(X0, V0, model), DomainError
    # v~^2 overflows: the slow state stops being finite
    model = tb.ToroidalFieldModel(1e-3)
    return DriftState(0.5, 0.0, 1e200), model, 0.0, FloatingPointError


@pytest.mark.parametrize("tag", ["axis", "domain", "non_finite"])
def test_both_drift_backends_abort_alike(tag):
    s0, model, mu0, error = _drift_abort_case(tag)
    cfg = tb.DriftConfig(mu0=mu0, dtau=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warnings either
        compiled, python = drift_both(s0, model, cfg, np.arange(1001.0))
    assert compiled[0] is error
    assert compiled == python


@needs_cc
def test_compiled_drift_rejects_bad_buffers():
    rk4 = _kernels.compiled_kernel().drift_rk4
    args = (1e-3, 1e-4, tb.ToroidalFieldModel(1e-3), 1.0)
    counts = np.array([10], dtype=np.int64)
    with pytest.raises(ValueError):  # one row per sample time
        rk4(np.array([0.0, 1.0]), counts, *args, np.zeros((1, 3)))
    with pytest.raises(ValueError):  # an empty grid has no row 0
        rk4(np.empty(0), counts[:0], *args, np.zeros((0, 3)))
    with pytest.raises(ValueError):  # one count per interval
        rk4(np.array([0.0, 1.0]), np.array([10, 10], dtype=np.int64), *args, np.zeros((2, 3)))
    with pytest.raises(ctypes.ArgumentError):  # wrong dtype never reaches C
        rk4(np.array([0.0, 1.0], dtype=np.float32), counts, *args, np.zeros((2, 3)))
    with pytest.raises(ctypes.ArgumentError):  # counts are int64, not float
        rk4(np.array([0.0, 1.0]), counts.astype(float), *args, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# CSV rows: the C formatter against cli._python_rows, byte for byte


def c_rows(values, cols=1, kernel=None):
    """values as rows of cols fields in one C call, read as columns in place: their
    lines, or None when the C formatter refuses the range."""
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    kernel = kernel or _kernels.compiled_kernel()
    return kernel.format_rows(tuple(block.T))(0, len(block))


def python_rows(values, cols=1):
    return cli._python_rows(np.asarray(values, dtype=np.float64).reshape(-1, cols))


def assert_same_text(got: bytes | None, want: bytes):
    """got == want, reporting the first line that differs: a diff of long texts is slow."""
    assert got is not None, "the C formatter refused the rows"
    if got != want:
        lines = zip(got.splitlines(), want.splitlines())
        first = next(((i, g, w) for i, (g, w) in enumerate(lines) if g != w), "a line count")
        raise AssertionError(f"texts differ at (line, got, want) {first}")


# The ends of the C formatter's range, decimal exponents -40 to 16, as doubles:
# the least double from 1e-40 on, and 1e17, which is one.
LEAST = float("1e-40")
if Decimal(LEAST) < Decimal("1e-40"):
    LEAST = math.nextafter(LEAST, 1.0)


def in_fast_range(x):
    """Zeros, infinities, NaN, and values from 1e-40 up to below 1e17 in magnitude."""
    a = np.abs(x)
    return (a == 0.0) | ~np.isfinite(a) | ((a >= LEAST) & (a < 1e17))


def assert_c_formats_its_range(values, cols=1, kernel=None):
    """Per row of values (cols fields): the C formatter writes Python's line for each row
    inside its fast range, all in one call, and refuses each other row in a call of its own.

    One call writes a range only when it would write each of its rows, so lines(i, i + 1)
    is None exactly when row i holds a value outside the range."""
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    inside = in_fast_range(block).all(1)
    if inside.any():
        assert_same_text(c_rows(block[inside], cols, kernel), python_rows(block[inside], cols))
    outside = block[~inside]
    lines = (kernel or _kernels.compiled_kernel()).format_rows(tuple(outside.T))
    written = [i for i in range(len(outside)) if lines(i, i + 1) is not None]
    assert written == [], f"C wrote rows outside its range: {outside[written[:5]]}"


def edge_values() -> list:
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
              sys.float_info.min, 1.7976931348623157e308, -1.7976931348623157e308,
              2.0**60, 2.0**53 + 2.0, 0.5, 2.5, 1051 * 2.0**-20, 0.1, 1 / 3]
    for k in range(-45, 21):
        x = float(f"1e{k}")
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    # exact ties: m / 2^n is m 5^n / 10^n, 18 digits ending in 5 when m is odd
    for n in range(1, 60):
        first = -(-(10**17) // 5**n) | 1
        odd = range(first, min(first + 40, -(-(10**18) // 5**n), 2**53), 2)
        values += [m / 2**n for m in odd]
    return values + [-x for x in values]


def significant(x) -> tuple:
    """(count of significant digits, decimal exponent) of x's %.17g field."""
    digits = Decimal(f"{x:.17g}").normalize().as_tuple()
    return len(digits.digits), len(digits.digits) - 1 + digits.exponent


def layout_values() -> list:
    """Doubles whose %.17g field has n significant digits at decimal exponent X,
    two (or the one there is) for each n of 1 to 17 and X of -6 to 17: every
    position of the point, the 0.000ddd forms, and both switches to
    e-notation (below 1e-4 in C, from 1e17 in the fallback).  The C formatter
    counts the digits from a mask, in each layout."""
    rng = np.random.default_rng(2029)
    values, missing = [], []
    for X in range(-6, 18):
        for n in range(1, 18):
            # n = 1 has nine decimals in all: try each
            tries = ((str(d) for d in range(1, 10)) if n == 1 else
                     ("".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, n - 2),
                                        rng.integers(1, 10)])) for _ in range(300)))
            hits = (x for x in (float(f"{t}e{X - n + 1}") for t in tries)
                    if significant(x) == (n, X))
            found = list(itertools.islice(hits, 2))
            values += found
            missing += [] if found else [(X, n)]
    # no double's field is a single digit at 1e-6 or 1e-5, the nearest to 1e-5 is
    # 1.0000000000000001e-05; 1e-14 is one (it carries, see power_values)
    assert missing == [(-6, 1), (-5, 1)]
    return values + [1e-14]


def power_values() -> list:
    """The doubles nearest each power of ten from 1e-45 to 1e20, and their neighbours.

    A field whose 17 digits round up to 10^17 carries into the exponent.  Of
    these only 1e-14 does: it lies 1.2e-18 of its value below 10^-14, closer
    than half a unit in the 17th digit, and no other double is that close
    below a power of ten in this range."""
    values = []
    for k in range(-45, 21):
        x = float(f"1e{k}")
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    return values


def limb_boundary_values() -> list:
    """Values either side of the one-limb product: 10^j fits one limb for j <= 19,
    which is |x| >= 2^-9 (decimal estimate -3), and takes three below it."""
    rng = np.random.default_rng(2030)
    edge = 2.0**-9
    values = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)]
    for e in (-12, -11, -10, -9, -8):
        values += (rng.uniform(1.0, 2.0, 200) * 2.0**e).tolist()
    return values


def branch_values() -> np.ndarray:
    values = np.array(layout_values() + power_values() + limb_boundary_values())
    return np.concatenate([values, -values])


@needs_cc
@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=60), cols=st.integers(1, 4))
def test_c_formatter_matches_python_on_any_float(values, cols):
    values = values[: len(values) // cols * cols] or [0.0] * cols
    assert_c_formats_its_range(values, cols)
    # a range is written whole or refused whole
    whole = python_rows(values, cols) if in_fast_range(np.array(values)).all() else None
    assert c_rows(values, cols) == whole


def random_patterns(n, seed):
    return np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


@needs_cc
def test_c_formatter_matches_python_on_random_bit_patterns():
    # The C formatter writes every pattern inside its range, the same bytes as
    # Python, and refuses each other pattern.
    patterns = random_patterns(1_000_000, 2024)
    assert_c_formats_its_range(patterns)
    assert_c_formats_its_range(patterns[:120_000], cols=12)


def count_python_rows(monkeypatch) -> list:
    """Record the block of each cli._python_rows call that follows."""
    blocks = []

    def counted(block):
        blocks.append(block)
        return python_formatter(block)

    python_formatter = cli._python_rows
    monkeypatch.setattr(cli, "_python_rows", counted)
    return blocks


@needs_cc
def test_c_formatter_falls_back_once_per_chunk(monkeypatch):
    # most random patterns lie outside the fast range, so every chunk holds one
    # and goes whole to one _python_rows call
    block = random_patterns(12 * (3 * cli._CHUNK_ROWS + 5), 2026).reshape(-1, 12)
    want = b"h\n" + cli._python_rows(block)
    blocks = count_python_rows(monkeypatch)
    assert_same_text(b"".join(cli._columns_csv("h", *block.T)), want)
    assert _kernels.BACKEND == "c"
    assert [len(b) for b in blocks] == [cli._CHUNK_ROWS] * 3 + [5]


# Outside the C formatter's fast range: subnormals, magnitudes below 1e-40, and from 1e17 on.
STRAYS = [5e-324, -2.0**-1050, 1e-300, -1e-300, 1e17, -1e300]


@st.composite
def stray_rows(draw, n):
    """Rows of an n-row CSV to hold a stray: any few, the first and last rows of
    drawn chunks, the last row of one chunk and the first of the next, or every row."""
    chunks = range(0, n, cli._CHUNK_ROWS)
    ends = [row for start in chunks for row in (start, min(start + cli._CHUNK_ROWS, n) - 1)]
    kinds = ["any", "ends", "every"] + (["adjacent"] if len(chunks) > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "any":
        return draw(st.lists(st.integers(0, n - 1), max_size=5))
    if kind == "ends":
        return draw(st.lists(st.sampled_from(ends), min_size=1, max_size=4))
    if kind == "adjacent":
        boundary = draw(st.sampled_from(chunks[1:]))
        return [boundary - 1, boundary]
    return list(range(n))


@needs_cc
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 3 * cli._CHUNK_ROWS + 2), cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_each_chunk_holding_a_stray_goes_whole_to_python(data, n, cols, seed):
    # in-range columns (zeros, infinities and NaN among them) with strays at drawn rows
    rng = np.random.default_rng(seed)
    block = rng.choice([-1.0, 1.0], (n, cols)) * rng.uniform(1.0, 10.0, (n, cols))
    block *= 10.0 ** rng.integers(-39, 17, (n, cols))
    block[rng.random((n, cols)) < 0.01] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan])
    rows = data.draw(stray_rows(n))
    block[rows, rng.integers(0, cols, len(rows))] = rng.choice(STRAYS, len(rows))
    want = b"h\n" + cli._python_rows(block)
    with pytest.MonkeyPatch.context() as mp:
        blocks = count_python_rows(mp)
        got = b"".join(cli._columns_csv("h", *block.T))
    assert_same_text(got, want)
    starts = sorted({row - row % cli._CHUNK_ROWS for row in rows})
    assert [b.tobytes() for b in blocks] == [
        block[start:start + cli._CHUNK_ROWS].tobytes() for start in starts]


@needs_cc
def test_shipped_configs_write_every_csv_row_in_c(monkeypatch, tmp_path):
    # a C formatter whose range narrowed would keep every byte, and so pass
    # every byte-identity test: the shipped runs must not reach _python_rows
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = [("simulate", "simulate_eps1e-3_h0.04", {}), ("drift", "simulate_eps1e-3_h0.04", {}),
            ("compare", "simulate_eps1e-3_h0.04", {"against": "reference"}),
            ("compare", "simulate_eps1e-3_h0.04", {"against": "drift"}),
            ("converge", "converge_scaled_pairs", {})]
    monkeypatch.chdir(tmp_path)
    blocks = count_python_rows(monkeypatch)
    for command, name, edits in runs:
        cfg = json.loads((configs / f"{name}.json").read_text())
        Path("config.json").write_text(json.dumps({**cfg, **edits}))
        assert cli.cli_main([command, "--config", "config.json"]) == 0, (command, edits)
    assert _kernels.BACKEND == "c"
    written = sorted(p.name for p in tmp_path.rglob("*.csv"))
    assert written == ["errors_eps0.00025_h0.02.csv", "errors_eps0.001_h0.04.csv",
                       "trajectory.csv"] and blocks == []


@needs_cc
def test_c_formatter_matches_python_at_every_binary_exponent():
    # 2^e and its neighbours for every exponent of a double, subnormals included:
    # pins the exponent estimate and the 18-digit path at every biased exponent
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert_c_formats_its_range(values)


@needs_cc
def test_c_formatter_matches_python_inside_its_range():
    # 17 significant digits at every decimal exponent, integers, and halves
    rng = np.random.default_rng(2025)
    mantissa = rng.uniform(1.0, 10.0, size=200_000)
    values = np.concatenate([mantissa * 10.0 ** rng.integers(-39, 17, size=len(mantissa)),
                             np.round(rng.uniform(-1e16, 1e16, size=50_000)),
                             np.arange(-25_000, 25_000) + 0.5])
    values *= rng.choice([-1.0, 1.0], size=len(values))
    assert_same_text(c_rows(values, cols=4), python_rows(values, cols=4))


@needs_cc
def test_c_formatter_matches_python_on_edge_values():
    # each value is a row: C writes exactly the documented range and refuses the rest
    assert_c_formats_its_range(edge_values())


CHUNKS = [0, 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 3, 2 * cli._CHUNK_ROWS + 1]


@needs_cc
@pytest.mark.parametrize("n", CHUNKS)
def test_columns_csv_is_the_same_on_both_backends(monkeypatch, n):
    rng = np.random.default_rng(n)
    spread = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-60, 60, (3, n))
    columns = (0.1 * np.arange(n), *spread, np.resize(np.array(edge_values()), n))
    compiled = list(cli._columns_csv("a,b,c,d,e", *columns))
    assert _kernels.BACKEND == "c"
    force_fallback(monkeypatch)
    with pytest.warns(RuntimeWarning, match="Python loop"):
        python = list(cli._columns_csv("a,b,c,d,e", *columns))
    assert len(compiled) == len(python) == 1 + -(-n // cli._CHUNK_ROWS)
    assert_same_text(b"".join(compiled), b"".join(python))


@needs_cc
def test_compiled_formatter_reads_columns_at_any_stride():
    block = np.arange(60.0).reshape(5, 12) / 7.0
    columns = (block[:, 0], block.T[3], block[::-1, 5], np.asfortranarray(block)[:, 11])
    want = python_rows(np.column_stack(columns), cols=4)
    assert _kernels.compiled_kernel().format_rows(columns)(0, 5) == want


@needs_cc
def test_compiled_formatter_formats_any_row_range():
    # the columns are set up once; each range is one C call, clipped to the rows,
    # and a range holding row 150's 1e300 is refused whole
    values = np.array(edge_values())
    block = values[in_fast_range(values)][:600].reshape(200, 3)
    block[150, 1] = 1e300
    lines = _kernels.compiled_kernel().format_rows(tuple(block.T))
    for start, stop in [(0, 200), (3, 7), (150, 1000), (151, 1000), (0, 1), (199, 200),
                        (0, 150), (150, 151), (0, 200), (100, 160)]:
        want = None if start <= 150 < stop else python_rows(block[start:stop], cols=3)
        assert lines(start, stop) == want, (start, stop)
    assert lines(5, 5) == lines(200, 200) == b""
    for start, stop in [(-1, 2), (3, 2), (201, 300)]:
        with pytest.raises(ValueError):
            lines(start, stop)


@needs_cc
def test_compiled_formatter_reports_a_buffer_below_the_rows_room(monkeypatch):
    # C refuses such a buffer (-1) apart from a range it leaves to Python (-2):
    # the wrapper raises, it does not return None
    monkeypatch.setattr(_kernels, "_FIELD_BYTES", _kernels._FIELD_BYTES - 1)
    lines = _kernels.compiled_kernel().format_rows((np.zeros(3),))
    with pytest.raises(RuntimeError, match="no room to format rows 0:3"):
        lines(0, 3)


@needs_cc
def test_compiled_formatter_rejects_bad_columns():
    format_rows = _kernels.compiled_kernel().format_rows
    good = np.zeros(4)
    for columns in [
        (good, np.zeros(4, dtype=np.float32)),  # wrong dtype never reaches C
        (good, np.zeros((4, 1))),  # a 2-D column
        (good, np.zeros(3)),  # columns of unequal length
        (good, [0.0] * 4),  # not an array
        (good, np.zeros(33, dtype=np.uint8)[1:].view(np.float64)),  # misaligned
        (),  # no columns
    ]:
        with pytest.raises(ValueError):
            format_rows(columns)


@needs_cc
def test_c_formatter_matches_python_in_every_layout():
    assert_c_formats_its_range(branch_values())
    # the carry: the double 1e-14 lies below 10^-14 and its 17 nines round up
    assert Decimal(1e-14) < Decimal("1e-14") and f"{1e-14:.17g}" == "1e-14"
    assert c_rows([1e-14, -1e-14]) == b"1e-14\n-1e-14\n"


@needs_cc
def test_formatter_without_int128_writes_the_same_bytes(tmp_path):
    # the 32-bit-halves product, for compilers without unsigned __int128
    lib = tmp_path / "no_int128.so"
    subprocess.run([_kernels._CC, *_kernels._CFLAGS, "-U__SIZEOF_INT128__", "-o", str(lib),
                    _kernels._SOURCE, "-lm"], check=True)
    kernel = _kernels._bind(str(lib))
    values = np.concatenate([edge_values(), branch_values(), random_patterns(100_000, 2027)])
    assert_c_formats_its_range(values, kernel=kernel)


@needs_cc
def test_c_formatter_stays_in_its_24_bytes_a_field(tmp_path):
    # the C call itself, given exactly rows * cols * FIELD_MAX bytes: the
    # longest field twice, then a field of each layout that stores furthest;
    # and the same fields before a value outside the fast range, a refused row
    lib = tmp_path / "room.so"
    subprocess.run([_kernels._CC, *_kernels._CFLAGS, "-o", str(lib), _kernels._SOURCE, "-lm"],
                   check=True)
    fn = ctypes.CDLL(str(lib)).toroboris_format_rows
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 3 + [ctypes.c_int64]
    longest = -1.2345678901234567e-40
    worst = [longest, -9.8765432109876543e-05,  # d.ddde-XX, with 17 and with 1 digit
             -1e-14, -0.00012345678901234567, -0.012345678901234567]  # 0.000ddd, 0.0ddd
    worst += [-float(f"1234567890123456.7e{k - 16}") for k in range(1, 18)]  # k digits, point
    assert len(f"{longest:.17g}") == _kernels._FIELD_BYTES - 1
    assert all(significant(x)[0] in (1, 17) for x in worst)
    guard = 64
    for x, refused in itertools.product(worst, (False, True)):
        # one row per call, so the last field has exactly its 24 bytes before cap
        block = np.array([[longest, x, 1e300] if refused else [longest, longest, x]])
        rows, cols = block.shape
        cap = rows * cols * _kernels._FIELD_BYTES
        out = np.full(cap + guard, 0xAB, dtype=np.uint8)
        columns = (ctypes.c_void_p * cols)(*[block[:, c].ctypes.data for c in range(cols)])
        strides = (ctypes.c_int64 * cols)(*[cols] * cols)
        args = (columns, strides, out.ctypes.data)
        written = fn(0, rows, cols, *args, cap)
        assert (out[cap:] == 0xAB).all(), block
        if refused:
            assert written == -2, block
        else:
            assert out[:written].tobytes() == python_rows(block, cols=cols)
        # a smaller cap is refused before anything is written
        out[:] = 0xAB
        assert fn(0, rows, cols, *args, cap - 1) == -1
        assert (out == 0xAB).all()


def sanitizer_rows() -> np.ndarray:
    """Every +-2^e with its neighbours, the edge and branch values and 200k random bit patterns."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([values, -values, edge_values(), branch_values(),
                           random_patterns(200_000, 2028)])


def sanitizer_runs() -> str:
    """Each loop's runs on the loaded backend: a completed run and every abort, as text."""
    cases = [(tb.ToroidalFieldModel(1e-3), tb.PusherConfig(h=0.04), 40.0),
             (tb.ToroidalFieldModel(1e-160), tb.PusherConfig(h=0.04), 0.4)]
    cases += [_abort_case(tag) for tag in ("axis_singularity", "domain_error", "sanity_guard")]
    lines = []
    for model, cfg, t_final in cases:
        traj = tb.integrate(X0, V0, model, cfg, t_final, sample_every=3)
        lines.append(f"{traj.error} {traj.steps_completed} {traj.x.tobytes().hex()} "
                     f"{traj.v.tobytes().hex()}")
    # a shortened last interval, then both aborts
    model, grid = tb.ToroidalFieldModel(1e-3), [k * 7.0 for k in range(15)] + [100.0]
    drift_cases = [(tb.drift_init(X0, V0, model), model, 0.0, grid)]
    drift_cases += [(*_drift_abort_case(tag)[:3], np.arange(1001.0)) for tag in ("axis", "domain")]
    for s0, model, mu0, times in drift_cases:
        try:
            tr = tb.drift_integrate(s0, model, tb.DriftConfig(mu0=mu0), times)
            lines.append(np.column_stack([tr.r, tr.z, tr.vpar]).tobytes().hex())
        except (AxisSingularity, DomainError) as e:
            lines.append(f"{type(e).__name__}: {e}")
    return "\n".join(lines)


SANITIZED_RUN = """
import sys
import test_kernels as tk
from toroboris import _kernels
_kernels._kernel, _kernels.BACKEND = _kernels._bind(sys.argv[1]), "c"
rows = tk.sanitizer_rows()
tk.assert_c_formats_its_range(rows)
# refused at its last row, after every other row was written
assert tk.c_rows(tk.np.append(rows[tk.in_fast_range(rows)], 1e300)) is None
sys.stdout.write(tk.sanitizer_runs())
"""


@needs_cc
def test_kernel_runs_clean_under_ubsan(tmp_path):
    # undefined behaviour in C (a shift past the width, a signed overflow, a
    # misaligned or out-of-bounds access) stops the run with "runtime error"
    lib = tmp_path / "ubsan.so"
    build = subprocess.run([_kernels._CC, *_kernels._CFLAGS, "-fsanitize=undefined",
                            "-fno-sanitize-recover=all", "-o", str(lib), _kernels._SOURCE, "-lm"],
                           capture_output=True, text=True)
    if build.returncode != 0:
        pytest.skip(f"no UBSan build: {build.stderr.strip()}")
    src = os.path.dirname(os.path.dirname(tb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    run = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(lib)], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0 and "runtime error" not in run.stderr, run.stderr[-2000:]
    with python_backend():
        assert run.stdout == sanitizer_runs()


# ---------------------------------------------------------------------------
# fallback and loader


def test_forced_fallback_uses_python_loop(monkeypatch, model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    want = tb.integrate(X0, V0, model_1e3, cfg, 40.0, sample_every=3)
    force_fallback(monkeypatch)
    with pytest.warns(RuntimeWarning, match="Python loop"):
        got = tb.integrate(X0, V0, model_1e3, cfg, 40.0, sample_every=3)
    assert _kernels.BACKEND == "python"
    assert _kernels.FALLBACK_REASON == "forced for the test"
    assert_bitwise_equal(got, want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one warning per process, not per run
        tb.integrate(X0, V0, model_1e3, cfg, 40.0, sample_every=3)


def test_forced_fallback_runs_the_python_rk4_loop(monkeypatch, model_1e3, mu0_1e3):
    cfg = tb.DriftConfig(mu0=mu0_1e3, dtau=1e-4)
    s0 = tb.drift_init(X0, V0, model_1e3)
    times = [k * 7.0 for k in range(8)] + [50.0]
    want = tb.drift_integrate(s0, model_1e3, cfg, times)
    calls = []

    def counted(*args):
        calls.append(args)
        return rk4_loop(*args)

    rk4_loop = drift._rk4_loop
    monkeypatch.setattr(drift, "_rk4_loop", counted)
    force_fallback(monkeypatch)
    with pytest.warns(RuntimeWarning, match="Python loop"):
        got = tb.drift_integrate(s0, model_1e3, cfg, times)
    assert _kernels.BACKEND == "python" and len(calls) == 1
    for name in ("t", "r", "z", "vpar"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def write_every_csv(out_dir) -> dict:
    """Run each CSV-writing subcommand into out_dir; the bytes of every file written."""
    out_dir.mkdir()
    orbit = {"field": {"preset": "paper-toroidal"}, "x0": list(X0), "v0": list(V0)}
    run = {"epsilon": 1e-3, "h": 0.04, "t_final": 40.0, "variant": "modified", "c": 0.5,
           "against": "drift", **orbit}
    study = {"mode": "scaled_pairs", "pairs": [[1e-3, 0.04], [2.5e-4, 0.02]], "c": 0.02,
             **orbit, "output": {"path": str(out_dir / "study.json"),
                                 "csv_dir": str(out_dir / "study")}}
    for command, cfg in [
        ("simulate", dict(run, output={"path": str(out_dir / "sim.csv"), "stride": 0.04})),
        ("drift", dict(run, output={"path": str(out_dir / "drift.csv"), "stride": 0.04})),
        ("compare", dict(run, output={"path": str(out_dir / "cmp.csv"),
                                      "summary_path": str(out_dir / "cmp.json")})),
        ("converge", study),
    ]:
        path = out_dir / f"{command}.config.json"
        path.write_text(json.dumps(cfg))
        assert cli.cli_main([command, "--config", str(path)]) == 0
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file() and "config" not in p.name}


@needs_cc
def test_forced_fallback_writes_identical_files(monkeypatch, tmp_path):
    compiled = write_every_csv(tmp_path / "c")
    force_fallback(monkeypatch)
    with pytest.warns(RuntimeWarning, match="Python loop"):
        python = write_every_csv(tmp_path / "python")
    assert _kernels.BACKEND == "python"
    assert len(compiled) == 7 and compiled == python


@needs_cc
def test_library_without_the_drift_symbol_is_unavailable(tmp_path):
    # an older build of the library: the two-step loop alone is not enough
    src = tmp_path / "old.c"
    src.write_text("int toroboris_two_step_loop(void) { return 0; }\n")
    lib = tmp_path / "old.so"
    subprocess.run(["cc", "-shared", "-fPIC", "-o", str(lib), str(src)], check=True)
    with pytest.raises(_kernels.KernelUnavailable, match="toroboris_drift_rk4"):
        _kernels._bind(str(lib))


@needs_cc
def test_library_without_the_format_symbol_is_unavailable(tmp_path):
    # a build from before the CSV formatter: both loops are not enough
    src = tmp_path / "old.c"
    src.write_text("int toroboris_two_step_loop(void) { return 0; }\n"
                   "int toroboris_drift_rk4(void) { return 0; }\n")
    lib = tmp_path / "old.so"
    subprocess.run(["cc", "-shared", "-fPIC", "-o", str(lib), str(src)], check=True)
    with pytest.raises(_kernels.KernelUnavailable, match="toroboris_format_rows"):
        _kernels._bind(str(lib))


def c_signatures() -> dict:
    """Each toroboris_* definition of _kernel.c: name to (return kind, parameter kinds)."""
    with open(_kernels._SOURCE) as f:
        source = f.read()
    found = re.findall(r"^(int|int64_t)\s+(toroboris_\w+)\(([^)]*)\)", source, re.MULTILINE)

    def kind(declaration: str) -> str:
        return "pointer" if "*" in declaration else declaration.split()[0]

    return {name: (kind(ret), [kind(p) for p in params.split(",")])
            for ret, name, params in found}


def ctypes_kind(t) -> str:
    if issubclass(t, (ctypes.c_void_p, ctypes._Pointer)):  # ndpointer types subclass c_void_p
        return "pointer"
    return {ctypes.c_double: "double", ctypes.c_int64: "int64_t", ctypes.c_int: "int"}[t]


@needs_cc
def test_bind_declares_the_c_signatures(monkeypatch):
    # a parameter added, dropped or retyped on one side only would pass
    # garbage to C without a ctypes error
    libs = []

    class Recorded(ctypes.CDLL):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            libs.append(self)

    monkeypatch.setattr(ctypes, "CDLL", Recorded)
    _kernels._load_library()
    signatures = c_signatures()
    assert sorted(signatures) == sorted(f"toroboris_{name}" for name in _kernels.Kernel._fields)
    for name, (ret, params) in signatures.items():
        fn = getattr(libs[0], name)  # the function object _bind declared
        assert ctypes_kind(fn.restype) == ret, name
        assert [ctypes_kind(t) for t in fn.argtypes] == params, name
    # a model enters as a0, a1, a2, c and r_min, with eps and mu0 or muhat: the
    # domain b > 0 is no argument
    assert signatures["toroboris_two_step_loop"][1].count("double") == 9
    assert signatures["toroboris_drift_rk4"][1].count("double") == 8


def count_loads(monkeypatch) -> list:
    """Reset the backend and count the library loads that follow."""
    loads = []

    def counted_load():
        loads.append(1)
        return load_library()

    load_library = _kernels._load_library
    monkeypatch.setattr(_kernels, "_load_library", counted_load)
    monkeypatch.setattr(_kernels, "BACKEND", None)
    monkeypatch.setattr(_kernels, "_kernel", None)
    return loads


@needs_cc
def test_drift_command_builds_the_kernel(monkeypatch, tmp_path):
    loads = count_loads(monkeypatch)
    cfg = tmp_path / "drift.json"
    cfg.write_text(json.dumps({"epsilon": 1e-3, "h": 0.04, "t_final": 10.0, "variant": "modified",
                               "field": {"preset": "paper-toroidal"},
                               "x0": list(X0), "v0": list(V0),
                               "output": {"path": str(tmp_path / "d.csv")}}))
    assert cli.cli_main(["drift", "--config", str(cfg)]) == 0
    assert (loads, _kernels.BACKEND) == ([1], "c")


@needs_cc
def test_csv_compare_mode_builds_the_kernel(monkeypatch, tmp_path):
    # no run at all: the error CSV's formatter is what loads the library
    loads = count_loads(monkeypatch)
    a = tmp_path / "a.csv"
    a.write_text("t,r,z,vpar\n0,0.5,0.5,1\n0.5,0.5,0.5,1\n")
    out = tmp_path / "err.csv"
    argv = ["compare", "--csv-a", str(a), "--csv-b", str(a), "--out", str(out),
            "--summary", str(tmp_path / "s.json")]
    assert cli.cli_main(argv) == 0
    assert (loads, _kernels.BACKEND) == ([1], "c")
    assert out.read_text() == "t,err_r,err_z,err_vpar\n0,0,0,0\n0.5,0,0,0\n"


@needs_cc
def test_kernel_cache_miss_builds_then_hits(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernels._load_library()
    built = sorted(p.name for p in (tmp_path / "toroboris").iterdir())
    assert len(built) == 1 and built[0].startswith("kernel-") and built[0].endswith(".so")

    def no_compile(target):
        raise AssertionError("a cache hit must not compile")

    monkeypatch.setattr(_kernels, "_compile", no_compile)
    _kernels._load_library()


@needs_cc
def test_kernel_builds_privately_when_cache_unwritable(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    private_root = tmp_path / "tmp"
    private_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private_root))
    _kernels._load_library()
    assert list(private_root.iterdir()) == []


def test_kernel_reports_missing_compiler(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels, "_CC", "toroboris-no-such-compiler")
    with pytest.raises(_kernels.KernelUnavailable, match="cannot run"):
        _kernels._load_library()
    assert list((tmp_path / "toroboris").iterdir()) == []


def test_check_field_never_builds_the_kernel(monkeypatch, tmp_path):
    def no_load():
        raise AssertionError("check-field must not build or load the kernel")

    monkeypatch.setattr(_kernels, "_load_library", no_load)
    monkeypatch.setattr(_kernels, "BACKEND", None)
    monkeypatch.setattr(_kernels, "_kernel", None)
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"epsilon": 1e-3, "field": {"preset": "paper-toroidal"},
                               "probes": {"count": 2}, "output": {"path": str(tmp_path / "f.json")}}))
    assert cli.cli_main(["check-field", "--config", str(cfg)]) == 0
    assert _kernels.BACKEND is None


PROBE = """
import json, sys
from toroboris import _kernels
from toroboris.cli import cli_main
code = cli_main(["simulate", "--config", sys.argv[1]])
loaded = [m for m in ("subprocess", "hashlib") if m in sys.modules]
print(json.dumps({"code": code, "backend": _kernels.BACKEND, "loaded": loaded}))
"""


@needs_cc
def test_cached_kernel_loads_without_subprocess_or_hashlib(tmp_path):
    # subprocess is only needed on a cache miss; hashlib would pull in OpenSSL
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"epsilon": 1e-3, "h": 0.04, "t_final": 0.08, "variant": "modified",
                               "field": {"preset": "paper-toroidal"},
                               "x0": list(X0), "v0": list(V0),
                               "output": {"path": str(tmp_path / "t.csv")}}))
    _kernels._load_library()  # warm the cache the child process will use
    src = os.path.dirname(os.path.dirname(os.path.abspath(tb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(sim)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"code": 0, "backend": "c", "loaded": []}
