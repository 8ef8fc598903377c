"""The names the package exports."""

from __future__ import annotations

import toroboris as tb

REMOVED = (
    "ConvergencePoint",
    "ConvergenceReport",
    "Theorem1Report",
    "build_convergence_report",
    "ValidationReport",
    "TwoStepWindow",
)


def test_every_exported_name_resolves_once():
    assert [name for name in tb.__all__ if not hasattr(tb, name)] == []
    assert len(set(tb.__all__)) == len(tb.__all__)


def test_report_containers_are_not_exported():
    # the studies and check_field return plain dicts; initialize returns a tuple
    for name in REMOVED:
        assert name not in tb.__all__
        assert not hasattr(tb, name)
