"""Compiled step loop for the closed-form toroidal field family.

Reference solutions need 1e7+ steps, so the two-step loop for the family
b = a0 + a1 r + a2 z^2, E_r = c z, E_z = c r runs as C (``_kernel.c``).
The C source is a line-for-line transcription of boris._generic_loop,
which stays the single Python definition of the step; a test pins the two
bitwise.

The library is built with the system compiler on the first call of
``compiled_loop`` (the first integrate on a closed-form model), never at
import.  It is cached as ``$XDG_CACHE_HOME/toroboris/kernel-<key>.so``
(``~/.cache/toroboris`` when the variable is unset), where the key is a
CRC-32 of the source, the flags and the machine type.  When that directory
cannot be written, the library is built in a private directory under
``tempfile.gettempdir()`` and removed once loaded.  Without a working
compiler the package falls back to the Python loop and says so once per
process with a RuntimeWarning.

BACKEND is ``"c"`` or ``"python"`` once the first closed-form run has
resolved it, ``None`` before; FALLBACK_REASON explains a ``"python"``
backend.
"""

from __future__ import annotations

import ctypes
import os
import platform
import warnings
import zlib

import numpy as np

STATUS_OK = 0
STATUS_AXIS = 1
STATUS_DOMAIN = 2
STATUS_RUNAWAY = 3

# The package uses no numba; benchmark environment records still read this.
HAVE_NUMBA = False

BACKEND: str | None = None
FALLBACK_REASON: str | None = None
_loop = None

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")


class KernelUnavailable(Exception):
    """The C kernel could not be built or loaded."""


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


def _bind(path: str):
    """Load the library at path and return a checked Python entry point."""
    try:
        lib = ctypes.CDLL(path)
    except OSError as e:
        raise KernelUnavailable(f"cannot load {path}: {e}") from e
    vec3 = np.ctypeslib.ndpointer(np.float64, ndim=1, shape=(3,), flags="C_CONTIGUOUS")
    out1 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    out3 = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    fn = lib.toroboris_two_step_loop
    fn.restype = ctypes.c_int
    fn.argtypes = (
        [ctypes.c_int64, ctypes.c_int64]
        + [ctypes.c_double] * 10
        + [vec3, vec3, out1, out3, out3, ctypes.POINTER(ctypes.c_int64)]
    )

    def two_step_loop(n_steps, sample_every, h, eps, mu0, a0, a1, a2, c_e, r_min, b_min,
                      v_max, x_arr, d_arr, out_t, out_x, out_v):
        """Run the C loop; same arguments and (status, rows, steps) as _generic_loop."""
        if sample_every < 1 or n_steps < 0 or len(out_t) <= n_steps // sample_every:
            raise ValueError(f"bad loop sizes: n={n_steps}, every={sample_every}, rows={len(out_t)}")
        if out_x.shape != (len(out_t), 3) or out_v.shape != out_x.shape:
            raise ValueError("out_x and out_v must have shape (len(out_t), 3)")
        result = (ctypes.c_int64 * 2)()
        status = fn(n_steps, sample_every, h, eps, mu0, a0, a1, a2, c_e, r_min, b_min, v_max,
                    x_arr, d_arr, out_t, out_x, out_v, result)
        return status, result[0], result[1]

    return two_step_loop


def _load_library():
    """Build the C loop on a cache miss, then load and bind it."""
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


def compiled_loop():
    """The C two-step loop, built on first use; None when running in Python.

    Resolves BACKEND (and FALLBACK_REASON) once per process.
    """
    global BACKEND, FALLBACK_REASON, _loop
    if BACKEND is None:
        try:
            _loop = _load_library()
            BACKEND = "c"
        except KernelUnavailable as e:
            BACKEND, FALLBACK_REASON = "python", str(e)
            warnings.warn(
                f"toroboris: C stepping kernel unavailable, using the Python loop ({e})",
                RuntimeWarning,
                stacklevel=3,
            )
    return _loop
