"""Two-regime absorbing-switch control: closed forms, solvers, simulation."""

from .closedform import (
    FCoefficientVariant,
    expected_log_utility_exact,
    f_closed_form,
    f_ode_coefficients,
    j_after,
    optimal_weight,
    policy_log_drift,
)
from .hjb import (
    CflViolationError,
    GridSpec,
    NumericalError,
    ValueSurface,
    pre_hamiltonian,
    post_hamiltonian,
    solve_after,
    solve_pre,
    solve_system,
    validate_grid_for,
)
from .model import (
    DEFAULT_CONTROL_BOUNDS,
    DefaultLossModel,
    FCurve,
    MarketParams,
    RegimeControlProblem,
    merton_as_generic,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    estimate,
    sample_default_time,
    simulate_terminal_log_wealth,
    sweep,
)
from .odesolve import OdeConfig, solve_f_backward

__all__ = [
    "CflViolationError",
    "DEFAULT_CONTROL_BOUNDS",
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
    "f_ode_coefficients",
    "j_after",
    "merton_as_generic",
    "optimal_weight",
    "policy_log_drift",
    "post_hamiltonian",
    "pre_hamiltonian",
    "sample_default_time",
    "simulate_terminal_log_wealth",
    "solve_after",
    "solve_f_backward",
    "solve_pre",
    "solve_system",
    "sweep",
    "validate_grid_for",
]

__version__ = "0.1.0"
