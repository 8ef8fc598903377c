import contextlib

import numpy as np
import pytest

import toroboris as tb
from toroboris import _kernels

# Benchmark initial data used across the suite.
X0 = (1 / 3, 1 / 4, 1 / 2)
V0 = (2 / 5, 2 / 3, 1.0)


@pytest.fixture(scope="session")
def x0():
    return X0


@pytest.fixture(scope="session")
def v0():
    return V0


@pytest.fixture(scope="session")
def model_1e3():
    """Benchmark toroidal field at epsilon = 1e-3."""
    return tb.ToroidalFieldModel(1e-3)


@pytest.fixture(scope="session")
def mu0_1e3(model_1e3):
    return tb.magnetic_moment(X0, V0, model_1e3)


def force_fallback(monkeypatch):
    """Make the next compiled_kernel() fall back to the Python loops, as without a compiler."""
    def unavailable():
        raise _kernels.KernelUnavailable("forced for the test")

    monkeypatch.setattr(_kernels, "_load_library", unavailable)
    monkeypatch.setattr(_kernels, "BACKEND", None)
    monkeypatch.setattr(_kernels, "FALLBACK_REASON", None)
    monkeypatch.setattr(_kernels, "_kernel", None)


@contextlib.contextmanager
def python_backend():
    """Run the block on the Python reference loops; usable inside @given tests."""
    with pytest.MonkeyPatch.context() as mp:
        force_fallback(mp)
        with pytest.warns(RuntimeWarning, match="Python loop"):
            assert _kernels.compiled_kernel() is None
        yield
        assert _kernels.BACKEND == "python"


def pytest_report_header(config):
    _kernels.compiled_kernel()
    line = f"toroboris stepping kernel: {_kernels.BACKEND}"
    if _kernels.FALLBACK_REASON:
        line += f" (fallback: {_kernels.FALLBACK_REASON})"
    return line


@pytest.fixture(scope="session", autouse=True)
def warm_kernel(model_1e3):
    """Build or load the stepping kernel once so timed tests see steady state."""
    cfg = tb.PusherConfig(h=0.04, variant="standard")
    tb.integrate(X0, V0, model_1e3, cfg, 0.08, sample_every=1)


def assert_close(actual, expected, rtol, atol=0.0):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)
