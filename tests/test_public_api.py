"""The names the package exports."""

from __future__ import annotations

import dataclasses
import inspect
import math

import pytest

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


def test_each_run_value_is_held_once():
    # the pusher's config holds the moment it applies; the results, the error
    # series and compare keep no copies of the run's inputs or of each other
    traj_fields = [f.name for f in dataclasses.fields(tb.Trajectory)]
    assert "variant" not in traj_fields and "mu0" not in traj_fields
    assert [f.name for f in dataclasses.fields(tb.DriftTrajectory)] == [
        "t", "r", "z", "vpar", "epsilon"]
    assert not hasattr(tb.PusherConfig, "effective_mu0")
    for name in ("max_r", "max_z", "max_vpar"):
        assert not hasattr(tb.ErrorSeries, name)


def test_compare_returns_the_run_and_its_errors():
    spec = tb.ExperimentSpec(field=tb.ToroidalFieldModel(1e-2), x0=(1 / 3, 1 / 4, 1 / 2),
                             v0=(2 / 5, 2 / 3, 1.0), h=0.05, t_final=0.5)
    run, err = tb.compare(spec, "drift")
    assert isinstance(run, tb.Trajectory) and isinstance(err, tb.ErrorSeries)


@pytest.mark.parametrize("variant, mu0", [
    ("standard", 0.1), ("modified", math.nan), ("modified", math.inf),
])
def test_the_pusher_config_refuses_a_moment_it_would_not_apply(variant, mu0):
    # the standard variant used to ignore its mu0, and a NaN one aborted the
    # run at step 0 with the runaway guard
    with pytest.raises(ValueError, match="mu0"):
        tb.PusherConfig(h=0.04, variant=variant, mu0=mu0)
