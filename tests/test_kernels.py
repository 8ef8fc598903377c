"""The C stepping kernel against the Python reference loop, and its loader."""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toroboris as tb
from toroboris import _kernels, cli

from conftest import X0, V0

HAVE_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


def run_both(x0, v0, model, cfg, t_final, sample_every=1):
    """integrate on a closed-form model (C kernel) and on its generic twin (Python loop)."""
    compiled = tb.integrate(x0, v0, model, cfg, t_final, sample_every=sample_every)
    if HAVE_CC:
        assert _kernels.BACKEND == "c", _kernels.FALLBACK_REASON
    generic = dataclasses.replace(model, poly=None)
    python = tb.integrate(x0, v0, generic, cfg, t_final, sample_every=sample_every)
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
    model = tb.toroidal_model(eps, *coeffs)
    x0 = rotate_z(X0, angle) + dx
    v0 = rotate_z(V0, angle) + dv
    mu0 = tb.magnetic_moment(x0, v0, model) if variant == "modified" else 0.0
    cfg = tb.PusherConfig(h=h, variant=variant, mu0=mu0)
    assert_bitwise_equal(*run_both(x0, v0, model, cfg, n * h, sample_every=every))


def _abort_case(tag):
    if tag == "axis_singularity":
        # no grad-B force, inward electric drift
        model = tb.toroidal_model(1e-3, r_min=0.416)
        return model, tb.PusherConfig(h=0.04, variant="modified", mu0=0.0), 400.0
    if tag == "domain_error":
        # the drift carries the orbit into b < 0.3
        model = dataclasses.replace(tb.toroidal_model(1e-3), b_min=0.3)
        mu0 = tb.magnetic_moment(X0, V0, model)
        return model, tb.PusherConfig(h=0.04, variant="modified", mu0=mu0), 1000.0
    # a strong electric field speeds the orbit past v_max after ~400 steps
    model = tb.toroidal_model(1e-3, c=3.0)
    mu0 = tb.magnetic_moment(X0, V0, model)
    return model, tb.PusherConfig(h=0.04, variant="modified", mu0=mu0, v_max=0.295), 400.0


@pytest.mark.parametrize("tag", ["axis_singularity", "domain_error", "sanity_guard"])
def test_both_backends_abort_at_the_same_step(tag):
    model, cfg, t_final = _abort_case(tag)
    compiled, python = run_both(X0, V0, model, cfg, t_final)
    assert compiled.error == tag
    assert 0 < compiled.steps_completed < round(t_final / cfg.h)
    assert_bitwise_equal(compiled, python)


@needs_cc
def test_compiled_loop_rejects_bad_buffers():
    loop = _kernels.compiled_loop()
    x, d = np.array(X0), np.zeros(3)
    args = (10, 1, 0.04, 1e-3, 0.0, 0.0, 1.0, 1.0, 0.1, 1e-9, 0.0, 10.0, x, d)
    with pytest.raises(ValueError):  # 10 steps sampled every step need 11 rows
        loop(*args, np.empty(10), np.empty((10, 3)), np.empty((10, 3)))
    with pytest.raises(ctypes.ArgumentError):  # wrong dtype never reaches C
        loop(*args, np.empty(11), np.empty((11, 3), dtype=np.float32), np.empty((11, 3)))


# ---------------------------------------------------------------------------
# fallback and loader


def test_forced_fallback_uses_python_loop(monkeypatch, model_1e3, mu0_1e3):
    cfg = tb.PusherConfig(h=0.04, variant="modified", mu0=mu0_1e3)
    want = tb.integrate(X0, V0, model_1e3, cfg, 40.0, sample_every=3)

    def unavailable():
        raise _kernels.KernelUnavailable("forced for the test")

    monkeypatch.setattr(_kernels, "_load_library", unavailable)
    monkeypatch.setattr(_kernels, "BACKEND", None)
    monkeypatch.setattr(_kernels, "FALLBACK_REASON", None)
    monkeypatch.setattr(_kernels, "_loop", None)
    with pytest.warns(RuntimeWarning, match="Python loop"):
        got = tb.integrate(X0, V0, model_1e3, cfg, 40.0, sample_every=3)
    assert _kernels.BACKEND == "python"
    assert _kernels.FALLBACK_REASON == "forced for the test"
    assert_bitwise_equal(got, want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one warning per process, not per run
        tb.integrate(X0, V0, model_1e3, cfg, 40.0, sample_every=3)


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
    monkeypatch.setattr(_kernels, "_loop", None)
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
