"""The names the package exports."""

from __future__ import annotations

import dataclasses
import inspect

import toroboris as tb
from toroboris import cli, drift

REMOVED = (
    "ConvergencePoint",
    "ConvergenceReport",
    "Theorem1Report",
    "build_convergence_report",
    "ValidationReport",
    "TwoStepWindow",
    "UniformFieldModel",
    "Unsupported",
    "filter_initial_velocity",
)


def test_every_exported_name_resolves_once():
    assert [name for name in tb.__all__ if not hasattr(tb, name)] == []
    assert len(set(tb.__all__)) == len(tb.__all__)


def test_report_containers_are_not_exported():
    # the studies and check_field return plain dicts; initialize returns a tuple;
    # the one field model is the toroidal one, so no model lacks a potential
    for name in REMOVED:
        assert name not in tb.__all__
        assert not hasattr(tb, name)


def test_the_experiment_spec_alone_owns_the_budget():
    # the integrators and the drift's config take no budget; run_drift samples
    # on its spec's grid
    for fn in (tb.integrate, tb.drift_integrate):
        assert not [p for p in inspect.signature(fn).parameters if "budget" in p]
    assert [f.name for f in dataclasses.fields(tb.DriftConfig)] == ["mu0", "dtau"]
    assert list(inspect.signature(tb.run_drift).parameters) == ["spec"]
    assert not hasattr(drift, "BudgetExceeded") and not hasattr(drift, "DEFAULT_BUDGET")
    # only tests serialized configs, and json.dumps does
    assert not hasattr(cli, "serialize_config")
