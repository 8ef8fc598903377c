"""Compiled loops for the closed-form toroidal field family, and the CSV rows.

Reference solutions need 1e7+ pusher steps and the slow system 1e4+ RK4
steps per run, and a dense trajectory CSV a dozen exact fields per step, so
the library (``_kernel.c``) holds three functions:

- ``two_step_loop`` transcribes boris._generic_loop line for line, for the
  family b = a0 + a1 r + a2 z^2, E_r = c z, E_z = c r;
- ``drift_rk4`` transcribes drift._rk4_loop line for line, for the same
  family;
- ``format_rows`` writes CSV rows of ``"%.17g" % x`` fields, the bytes of
  cli._python_rows, in exact integer arithmetic on 64-bit limbs, reading
  the columns in place.  It formats zeros, infinities, NaN and the normal
  values of decimal exponent -40 to 16 (1e-40 <= |x| < 1e17); the rows
  holding any other value (a subnormal, anything smaller or from 1e17 on)
  go to the Python formatter instead, in one call.  The wrapper formats the
  rows it is given and returns bytes; cli._columns_csv hands it one chunk of
  rows at a time.

The Python code stays the single definition of each; tests pin each C
function to its Python twin bitwise.  A loop's wrapper takes its twin's
arguments (the model, not its coefficients) and returns or raises what the
twin does.  ``compiled_kernel(model)`` is the one place that picks the C
loops, for a model of exactly the type ToroidalFieldModel only: a subclass
may override the closed form they inline.

The library is built with the system compiler on the first call of
``compiled_kernel`` (the first integrate or drift_integrate on a
ToroidalFieldModel, or the first CSV), never at import.  It is cached as
``$XDG_CACHE_HOME/toroboris/kernel-<key>.so`` (``~/.cache/toroboris`` when
the variable is unset), where the key is a CRC-32 of the source, the flags
and the machine type.  When that directory cannot be written, the library
is built in a private directory under ``tempfile.gettempdir()`` and removed
once loaded.  A library that lacks any of the three symbols is unavailable
as a whole.  Without a working compiler the package falls back to the
Python code and says so once per process with a RuntimeWarning.

BACKEND is ``"c"`` or ``"python"`` once the first such call has resolved
it, ``None`` before; FALLBACK_REASON explains a ``"python"`` backend.
"""

from __future__ import annotations

import ctypes
import os
import platform
import warnings
import zlib
from typing import Callable, NamedTuple

import numpy as np

from .errors import AxisSingularity, DomainError
from .geometry import ToroidalFieldModel

STATUS_OK = 0
STATUS_AXIS = 1
STATUS_DOMAIN = 2
STATUS_RUNAWAY = 3

# The package uses no numba; benchmark environment records still read this.
HAVE_NUMBA = False

BACKEND: str | None = None
FALLBACK_REASON: str | None = None
_kernel = None

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
# FIELD_MAX of _kernel.c: the longest field the C formatter writes, with its separator.
_FIELD_BYTES = 24


class KernelUnavailable(Exception):
    """The C kernel could not be built or loaded."""


class Kernel(NamedTuple):
    """Checked Python entry points of the loaded library."""

    two_step_loop: Callable
    drift_rk4: Callable
    format_rows: Callable


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "toroboris")


def _compile(target: str) -> None:
    import subprocess  # only on a cache miss: keeps it out of warm start-up

    cmd = [_CC, *_CFLAGS, "-o", target, _SOURCE, "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.SubprocessError) as e:
        raise KernelUnavailable(f"cannot run {_CC}: {e}") from e
    if proc.returncode != 0:
        raise KernelUnavailable(f"{_CC} exited with {proc.returncode}: {proc.stderr.strip()}")


def _build(path: str) -> None:
    """Compile into a temporary file beside path, then move it into place.

    Concurrent builders each write their own file; os.replace makes the
    last one win atomically.  Raises OSError when the directory is not
    writable.
    """
    import tempfile

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        _compile(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _bind(path: str) -> Kernel:
    """Load the library at path and return its checked Python entry points."""
    try:
        lib = ctypes.CDLL(path)
        step_fn = lib.toroboris_two_step_loop
        rk4_fn = lib.toroboris_drift_rk4
        rows_fn = lib.toroboris_format_rows
    except (OSError, AttributeError) as e:
        raise KernelUnavailable(f"cannot load {path}: {e}") from e
    vec1 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    vec3 = np.ctypeslib.ndpointer(np.float64, ndim=1, shape=(3,), flags="C_CONTIGUOUS")
    out3 = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    # a model enters as its coefficients and r_min: both loops fix the domain b > 0
    step_fn.restype = ctypes.c_int
    step_fn.argtypes = (
        [ctypes.c_int64, ctypes.c_int64]
        + [ctypes.c_double] * 9
        + [vec3, vec3, out3, out3, ctypes.POINTER(ctypes.c_int64)]
    )
    rk4_fn.restype = ctypes.c_int
    counts1 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    rk4_fn.argtypes = (
        [ctypes.c_int64, vec1, counts1] + [ctypes.c_double] * 8
        + [out3, ctypes.POINTER(ctypes.c_double)]
    )
    # raw addresses: the wrapper checks the columns itself
    rows_fn.restype = ctypes.c_int64
    rows_fn.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 3 + [
        ctypes.c_int64, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)]

    def two_step_loop(n, sample_every, h, mu0, v_max, x_arr, d_arr, model, out_x, out_v):
        """Run the C loop; same arguments and (status, steps) as boris._generic_loop."""
        if sample_every < 1 or n < 0 or len(out_x) <= n // sample_every:
            raise ValueError(f"bad loop sizes: n={n}, every={sample_every}, rows={len(out_x)}")
        if out_x.shape[1:] != (3,) or out_v.shape != out_x.shape:
            raise ValueError("out_x and out_v must have the same shape (rows, 3)")
        m, steps = model, ctypes.c_int64(0)
        status = step_fn(n, sample_every, h, m.epsilon, mu0, m.a0, m.a1, m.a2, m.c, m.r_min,
                         v_max, x_arr, d_arr, out_x, out_v, steps)
        return status, steps.value

    def drift_rk4(times, counts, eps, dtau, model, muhat, out):
        """Run the C RK4; same arguments and errors as drift._rk4_loop."""
        if len(times) < 1 or out.shape != (len(times), 3) or len(counts) != len(times) - 1:
            raise ValueError("need len(times) >= 1, out (len(times), 3), a count per interval")
        m, bad = model, ctypes.c_double(0.0)
        status = rk4_fn(len(times), times, counts, eps, dtau, muhat, m.a0, m.a1, m.a2, m.c,
                        m.r_min, out, bad)
        if status == STATUS_AXIS:
            raise AxisSingularity(bad.value, m.r_min)
        if status == STATUS_DOMAIN:
            raise DomainError(bad.value)

    def format_rows(columns, fallback):
        """CSV lines of %.17g fields, one per value of the float64 columns, as bytes.

        Line i holds row i: the i-th value of each 1-D column, read in place at
        any stride.  One C call writes every line but those of the rows holding
        a value outside its range; fallback(block) writes those rows, given as
        one (rows, cols) block, as bytes, and they are spliced in.
        """
        if not columns:
            raise ValueError("no columns")
        for c in columns:
            # aligned: the data and the stride are whole doubles
            if not (isinstance(c, np.ndarray) and c.dtype == np.float64 and c.ndim == 1
                    and c.flags.aligned):
                raise ValueError("columns must be aligned 1-D float64 arrays")
        rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
        cols = len(columns)
        pointers = (ctypes.c_void_p * cols)(*[c.ctypes.data for c in columns])
        strides = (ctypes.c_int64 * cols)(*[c.strides[0] // c.itemsize for c in columns])
        out = np.empty(rows * cols * _FIELD_BYTES, dtype=np.uint8)
        skipped = np.empty((rows, 2), dtype=np.int64)
        n_skipped = ctypes.c_int64(0)
        written = rows_fn(rows, cols, pointers, strides, out.ctypes.data, len(out),
                          skipped.ctypes.data, n_skipped)
        text, parts, end = out.data, [], 0
        if n_skipped.value:
            left = skipped[:n_skipped.value]
            block = np.column_stack([c[left[:, 0]] for c in columns])
            for at, line in zip(left[:, 1].tolist(), fallback(block).splitlines(True),
                                strict=True):
                parts += (text[end:at], line)
                end = at
        return b"".join([*parts, text[end:written]])

    return Kernel(two_step_loop, drift_rk4, format_rows)


def _load_library():
    """Build the C loops on a cache miss, then load and bind them."""
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as e:
        raise KernelUnavailable(f"cannot read {_SOURCE}: {e}") from e
    tag = b"\0".join([source, " ".join(_CFLAGS).encode(), platform.machine().encode()])
    path = os.path.join(_cache_dir(), f"kernel-{zlib.crc32(tag):08x}.so")
    if not os.path.exists(path):
        try:
            _build(path)
        except OSError:
            # Cache not writable: build privately and drop the file once loaded.
            import tempfile

            with tempfile.TemporaryDirectory(prefix="toroboris-") as private:
                path = os.path.join(private, os.path.basename(path))
                _compile(path)
                return _bind(path)
    return _bind(path)


def compiled_kernel(model=None) -> Kernel | None:
    """The C loops, built on first use; None when running in Python, or for
    a model whose type is not exactly ToroidalFieldModel.

    Resolves BACKEND (and FALLBACK_REASON) once per process.
    """
    global BACKEND, FALLBACK_REASON, _kernel
    if model is not None and type(model) is not ToroidalFieldModel:
        return None
    if BACKEND is None:
        try:
            _kernel = _load_library()
            BACKEND = "c"
        except KernelUnavailable as e:
            BACKEND, FALLBACK_REASON = "python", str(e)
            warnings.warn(
                f"toroboris: C kernel unavailable, using the Python loops ({e})",
                RuntimeWarning,
                stacklevel=3,
            )
    return _kernel
