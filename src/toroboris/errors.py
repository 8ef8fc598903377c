"""Exception types shared across the package."""

from __future__ import annotations

from numbers import Integral

_GRID_TOL = 1e-12  # the most two time stamps of one grid may differ by


class ToroborisError(Exception):
    """Base class for all package errors."""


class AxisSingularity(ToroborisError):
    """Raised when a point comes closer to the symmetry axis than r_min.

    The toroidal frame and field are undefined on the axis; a trajectory
    visiting this region has left the modeled domain.
    """

    def __init__(self, r: float, r_min: float):
        self.r = r
        self.r_min = r_min
        super().__init__(f"distance to axis r={r:.6g} fell below r_min={r_min:.6g}")


class DomainError(ToroborisError):
    """Raised when the field magnitude profile b leaves its domain b > 0."""

    def __init__(self, b: float):
        self.b = b
        super().__init__(f"field profile b={b:.6g} is not above b_min=0")


def _count(n) -> str:
    """An integer, or a float holding an exact integer below 2**53, in digits; any
    other float (a non-integral or huge estimate) as its repr."""
    if isinstance(n, Integral):
        return str(int(n))
    x = float(n)
    return str(int(x)) if x.is_integer() and abs(x) < 2**53 else repr(x)


class BudgetExceeded(ToroborisError):
    """Raised when a run ("run", "reference" or "slow-system RK4") would exceed its step budget."""

    def __init__(self, steps: float, budget: float, run: str, step: str):
        self.steps = steps
        self.budget = budget
        super().__init__(
            f"{run} needs {_count(steps)} steps, above the budget of {_count(budget)}; its step "
            f"is {step}: take a larger one, a shorter horizon or a larger budget_steps"
        )


class RunAborted(ToroborisError):
    """Raised when a compared run ends early: run is "run" or "reference", tag its error tag."""

    def __init__(self, run: str, tag: str):
        self.run = run
        self.tag = tag
        super().__init__(f"{run} aborted: {tag}")


class GridMismatch(ToroborisError):
    """Raised when two series to be compared are not on the same time grid.

    sizes, the two sample counts, is given when they differ.
    """

    def __init__(self, max_diff: float, sizes: tuple[int, int] | None = None):
        self.max_diff = max_diff
        super().__init__(f"the series have {sizes[0]} and {sizes[1]} samples" if sizes
                         else f"time stamps differ by up to {max_diff:.4g} (> {_GRID_TOL})")


class SchemaError(ToroborisError):
    """Raised for malformed run configurations; carries a JSON-pointer-style path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
