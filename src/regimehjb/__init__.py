"""Two-regime absorbing-switch control: closed forms, solvers, simulation.

The package exports each route's entry point and the types it needs; the
result types and layer-internal pieces (the Hamiltonians, the per-regime
solves, the sampling primitives) are imported from their own modules.
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
    solve_system,
)
from .model import (
    DefaultLossModel,
    MarketParams,
    NumericalError,
    RegimeControlProblem,
    merton_as_generic,
)
from .montecarlo import McConfig, estimate, sweep
from .odesolve import OdeConfig, solve_f_backward

__all__ = [
    "CflViolationError",
    "DefaultLossModel",
    "FCoefficientVariant",
    "GridSpec",
    "MarketParams",
    "McConfig",
    "NumericalError",
    "OdeConfig",
    "RegimeControlProblem",
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
