"""Analytic results for the defaultable-stock log-utility problem.

Everything here is exact arithmetic on the market parameters: the optimal
constant stock weight, the all-cash continuation value, the linear ODE for
the time component f(t) of the pre-default value J(W, t) = f(t) + log W,
its explicit solution, and a closed-form integral for the expected log
utility of any constant policy (the independent oracle used to cross-check
the other solution routes).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .model import DefaultLossModel, MarketParams, NumericalError


class FCoefficientVariant(Enum):
    """Two forms of the constant K in the f(t) equation.

    PAPER keeps the (2 - sigma^2)/2 prefactor: K = (mu-r-h)^2 (2-sigma^2) / (2 sigma^2).
    DERIVED uses the 1/2 prefactor that follows from substituting the optimal
    weight into the drift expansion: K = (mu-r-h)^2 / (2 sigma^2).
    The two coincide exactly when sigma^2 = 1; only DERIVED reproduces the
    exact-integral oracle for general sigma.
    """

    PAPER = "paper"
    DERIVED = "derived"


def optimal_weight(params: MarketParams) -> float:
    """Optimal constant stock weight (mu - r - h) / sigma^2.

    With h = 0 this reduces, bitwise, to the classical (mu - r) / sigma^2.
    A weight that is not finite raises NumericalError.
    """
    sig2 = params.sigma * params.sigma
    return _finite_at_sigma(params, "the optimal weight",
                            (params.mu - params.r - params.h) / sig2 if sig2 else math.inf)


def _finite_at_sigma(params: MarketParams, what: str, value: float) -> float:
    """value, or NumericalError naming sigma if it is not finite: sigma**2 is
    0, or so small that dividing by it overflows, below sigma ~ 1e-155, and
    inf above sigma ~ 1.3e154."""
    if not math.isfinite(value):
        raise NumericalError(f"{what} is not finite at sigma={params.sigma!r}")
    return value


def j_after(params: MarketParams, w: float, t: float) -> float:
    """All-cash log-utility continuation value r*(t - T) + log(w).

    Note the rate term is signed by t - T (non-positive before maturity);
    the numerical verification legs use the forward-growth convention
    r*(T - t) which differs by 2 r (T - t).
    """
    if not 0.0 < w < math.inf:        # written so that NaN fails
        raise ValueError("wealth must be positive and finite")
    if not 0.0 <= t <= params.horizon_T:
        raise ValueError("t must lie in [0, horizon_T]")
    return params.r * (t - params.horizon_T) + math.log(w)


def f_ode_coefficients(params: MarketParams,
                       variant: FCoefficientVariant = FCoefficientVariant.DERIVED,
                       ) -> float:
    """Constant K of the linear terminal-value equation for f(t):
    f'(t) - h f(t) = -K - r - h r (T - t)  with f(T) = 0.
    A K that is not finite raises NumericalError.
    """
    m = params.mu - params.r - params.h
    sig2 = params.sigma * params.sigma
    if not sig2:
        k = math.inf
    elif variant is FCoefficientVariant.PAPER:
        k = m * m * (2.0 - sig2) / (2.0 * sig2)
    else:
        k = m * m / (2.0 * sig2)
    return _finite_at_sigma(params, "K", k)


def f_closed_form(params: MarketParams, t,
                  variant: FCoefficientVariant = FCoefficientVariant.DERIVED):
    """Explicit solution of the f(t) terminal-value equation.

    For h > 0:

        f(t) = r (T - t) + (K / h) * (1 - exp(-h (T - t))),

    computed with expm1, which stays accurate as h -> 0. The limit
    (K + r) (T - t) is used only where that is not finite: h = 0, or K / h
    overflows. f(T) = 0 exactly in both branches. Accepts scalar t
    (returns a float) or an array of times; the array path uses np.expm1,
    which can differ from the scalar math.expm1 in the last bit.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t_arr) & (t_arr <= params.horizon_T)):
        raise ValueError("t must lie in [0, horizon_T]")
    k = f_ode_coefficients(params, variant)
    scalar = t_arr.ndim == 0
    s = params.horizon_T - (float(t_arr) if scalar else t_arr)
    h = params.h
    # K / h finite bounds the exact form by r s + K s, so it is finite too
    if h == 0.0 or not math.isfinite(k / h):
        return (k + params.r) * s
    expm1 = math.expm1 if scalar else np.expm1
    return params.r * s + (k / h) * (-expm1(-h * s))


def policy_log_drift(params: MarketParams, pi) -> float:
    """Log-wealth drift r + pi (mu - r) - pi^2 sigma^2 / 2 of a constant policy."""
    pi = np.asarray(pi, dtype=float)
    try:
        sig2 = params.sigma ** 2
    except OverflowError:
        raise NumericalError(f"sigma**2 is not finite at sigma={params.sigma!r}") from None
    out = params.r + pi * (params.mu - params.r) - 0.5 * pi * pi * sig2
    return float(out) if out.ndim == 0 else out


def expected_log_utility_exact(params: MarketParams, pi,
                               loss: DefaultLossModel = DefaultLossModel.EXPONENTIAL):
    """Expected terminal log wealth of a constant policy, in closed form.

    Integrates the defaulted branch against the exponential default-time
    density: with alpha the policy log drift and L the log drop at default,

        E = log w0 + exp(-h T) alpha T
            + int_0^T h exp(-h tau) (alpha tau + L + r (T - tau)) dtau,

    which collapses to  log w0 + r T + (1 - exp(-h T)) ((alpha - r)/h + L).
    Where (alpha - r)/h overflows, h is so small that the h -> 0 limit
    log w0 + alpha T + (1 - exp(-h T)) L is exact to rounding (at h = 0 the
    weight 1 - exp(-h T) is 0). Accepts scalar or array pi.
    """
    pi_arr = np.asarray(pi, dtype=float)
    drop = loss.log_wealth_drop(pi_arr)
    alpha = np.asarray(policy_log_drift(params, pi_arr))
    log_w0 = math.log(params.w0)
    T = params.horizon_T
    weight = -math.expm1(-params.h * T)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = (alpha - params.r) / params.h
        exact = log_w0 + params.r * T + weight * (ratio + drop)
    out = np.where(np.isfinite(ratio), exact, log_w0 + alpha * T + weight * drop)
    return float(out) if out.ndim == 0 else out
