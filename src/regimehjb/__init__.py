"""Two-regime absorbing-switch control: closed forms, solvers, simulation.

The package exports each route's entry point and the types it needs;
layer-internal pieces (the Hamiltonians, the per-regime solves, the
sampling primitives) are imported from their own modules.
"""

from .closedform import (
    FCoefficientVariant,
    expected_log_utility_exact,
    f_closed_form,
    optimal_weight,
)
from .hjb import (
    CflViolationError,
    GridSpec,
    ValueSurface,
    solve_system,
)
from .model import (
    DefaultLossModel,
    FCurve,
    MarketParams,
    NumericalError,
    RegimeControlProblem,
    merton_as_generic,
)
from .montecarlo import McConfig, McEstimate, estimate, sweep
from .odesolve import OdeConfig, solve_f_backward

__all__ = [
    "CflViolationError",
    "DefaultLossModel",
    "FCoefficientVariant",
    "FCurve",
    "GridSpec",
    "MarketParams",
    "McConfig",
    "McEstimate",
    "NumericalError",
    "OdeConfig",
    "RegimeControlProblem",
    "ValueSurface",
    "estimate",
    "expected_log_utility_exact",
    "f_closed_form",
    "merton_as_generic",
    "optimal_weight",
    "solve_f_backward",
    "solve_system",
    "sweep",
]

__version__ = "0.1.0"
