"""Charged-particle pushers and slow-drift studies in toroidal fields.

The package provides the standard and modified Boris integrators (in
equivalent two-step and one-step forms), an analytic axisymmetric toroidal
field model with numerical self-validation, the slow guiding-center
system as an independent comparator, and an experiment harness for
error-scaling studies, all driven by a deterministic CSV/JSON CLI.
"""

from .boris import (
    ParticleState,
    PusherConfig,
    Trajectory,
    initialize,
    integrate,
    magnetic_moment,
    nondegeneracy_sigma,
    one_step_push,
)
from .drift import (
    DriftConfig,
    DriftState,
    DriftTrajectory,
    drift_init,
    drift_integrate,
    drift_rhs,
)
from .errors import (
    AxisSingularity,
    BudgetExceeded,
    DomainError,
    GridMismatch,
    RunAborted,
    SchemaError,
    ToroborisError,
)
from .geometry import (
    CylindricalFrame,
    FieldSample,
    ToroidalFieldModel,
    check_field,
    eval_field,
    frame,
    potential,
    toroidal_probes,
)
from .harness import (
    ErrorSeries,
    ExperimentSpec,
    ObservableSeries,
    compare,
    convergence_study,
    error_vs_drift,
    error_vs_reference,
    fit_loglog_slope,
    monitor_nondegeneracy,
    observables,
    run_drift,
    run_reference,
    run_trajectory,
    theorem1_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSingularity",
    "BudgetExceeded",
    "CylindricalFrame",
    "DomainError",
    "DriftConfig",
    "DriftState",
    "DriftTrajectory",
    "ErrorSeries",
    "ExperimentSpec",
    "FieldSample",
    "GridMismatch",
    "ObservableSeries",
    "ParticleState",
    "PusherConfig",
    "RunAborted",
    "SchemaError",
    "ToroborisError",
    "ToroidalFieldModel",
    "Trajectory",
    "check_field",
    "compare",
    "convergence_study",
    "drift_init",
    "drift_integrate",
    "drift_rhs",
    "error_vs_drift",
    "error_vs_reference",
    "eval_field",
    "fit_loglog_slope",
    "frame",
    "initialize",
    "integrate",
    "magnetic_moment",
    "monitor_nondegeneracy",
    "nondegeneracy_sigma",
    "observables",
    "one_step_push",
    "potential",
    "run_drift",
    "run_reference",
    "run_trajectory",
    "theorem1_suite",
    "toroidal_probes",
]
