import regimehjb
from regimehjb import cli, model
from regimehjb.hjb import CflViolationError

# the public API: it may shrink, never grow
PUBLIC_API = {
    "CflViolationError", "DefaultLossModel", "FCoefficientVariant", "GridSpec",
    "MarketParams", "McConfig", "NumericalError", "OdeConfig", "RegimeControlProblem",
    "estimate", "expected_log_utility_exact", "f_closed_form", "merton_as_generic",
    "optimal_weight", "solve_f_backward", "solve_system", "sweep",
}


def test_public_api_does_not_grow():
    assert set(regimehjb.__all__) <= PUBLIC_API


def test_one_config_error_from_the_library_to_the_cli():
    assert cli.ConfigError is model.ConfigError
    assert issubclass(model.ConfigError, ValueError)
    assert issubclass(CflViolationError, model.ConfigError)
    assert not hasattr(regimehjb, "ConfigError")
