"""The names perfbench's tracer and runner look up on the package."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from toroboris import _kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    # tracing.py imports workloads.py by its bare name, as perfbench/run.py does;
    # no bytecode is written, so perfbench/ stays as checked out
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module}.{name}"
        for module, name in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"toroboris.{module}"), name, None))
    ]
    assert missing == []
    # perfbench/run.py records it in the environment of every run
    assert hasattr(_kernels, "HAVE_NUMBA")
