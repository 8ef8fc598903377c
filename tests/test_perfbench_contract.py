"""The names perfbench's tracer and runner look up on the package."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from toroboris import _kernels, boris, cli, drift, geometry, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_tracing(monkeypatch):
    # tracing.py imports workloads.py by its bare name, as perfbench/run.py does;
    # no bytecode is written, so perfbench/ stays as checked out
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(monkeypatch):
    tracing = import_tracing(monkeypatch)
    missing = [
        f"{module}.{name}"
        for module, name in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"toroboris.{module}"), name, None))
    ]
    assert missing == []
    # perfbench/run.py records it in the environment of every run
    assert hasattr(_kernels, "HAVE_NUMBA")


@pytest.mark.parametrize("against, other", [("drift", "reference"), ("reference", "drift")])
def test_compare_layers_are_traced(tmp_path, monkeypatch, against, other):
    # the spans sit on module globals, so the one compare path must look each
    # layer up by its module-global name
    tracing = import_tracing(monkeypatch)
    config = {
        "epsilon": 1e-2, "h": 0.05, "t_final": 2.0, "variant": "modified",
        "field": {"preset": "paper-toroidal"}, "x0": [1 / 3, 1 / 4, 1 / 2], "v0": [2 / 5, 2 / 3, 1],
        "against": against,
        "output": {"path": str(tmp_path / "err.csv"), "summary_path": str(tmp_path / "s.json")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    modules = {"cli": cli, "harness": harness, "boris": boris, "geometry": geometry, "drift": drift}
    with tracing.Tracer(modules) as tracer:
        assert cli.cli_main(["compare", "--config", str(path)]) == 0
    calls = dict(zip(tracer.labels, tracer.totals()["calls"].tolist()))
    for label in ("run_trajectory", f"run_{against}", f"error_vs_{against}"):
        assert calls[f"harness.{label}"] > 0, label
    assert calls[f"harness.run_{other}"] == calls[f"harness.error_vs_{other}"] == 0
    # compare computes only the compared r, z and v_par, and mu0 once per spec
    assert calls["harness.observables"] == 0
    assert calls["boris.magnetic_moment"] == 1


def test_drift_command_is_traced(tmp_path, monkeypatch):
    # the tracer counts RK4 steps from drift_integrate's config (third argument)
    # and its result's epsilon, replayed over the grid the command built
    tracing = import_tracing(monkeypatch)
    config = {
        "epsilon": 1e-2, "h": 0.05, "t_final": 2.0, "variant": "modified",
        "field": {"preset": "paper-toroidal"}, "x0": [1 / 3, 1 / 4, 1 / 2], "v0": [2 / 5, 2 / 3, 1],
        "dtau": 1e-3, "output": {"path": str(tmp_path / "drift.csv"), "stride": 0.5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    modules = {"cli": cli, "harness": harness, "boris": boris, "geometry": geometry, "drift": drift}
    with tracing.Tracer(modules) as tracer:
        assert cli.cli_main(["drift", "--config", str(path)]) == 0
    totals = tracer.totals()
    calls = dict(zip(tracer.labels, totals["calls"].tolist()))
    assert calls["drift.drift_integrate"] == 1
    # 4 intervals of 5 dtau of slow time each
    assert totals["counts"]["drift.drift_integrate.rk4_steps"] == 20
