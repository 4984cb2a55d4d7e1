"""Problem data for two-regime control with an absorbing switch.

Holds the generic control problem (one diffusion regime that can switch,
once and irreversibly, into a second regime at a constant hazard rate) and
the concrete defaultable-stock market it specializes to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Tuple

import numpy as np


class NumericalError(RuntimeError):
    """Non-finite quantity encountered during a solve."""


class ConfigError(ValueError):
    """A configuration fault, found when the config is read or when a solve
    meets it (a CFL violation, control nodes outside the bounds, a linear-loss
    weight pi >= 1)."""


class DefaultLossModel(Enum):
    """How wealth is marked down when the default event hits.

    EXPONENTIAL: post-jump wealth W * exp(-pi), an additive shift of -pi in
    log-wealth, valid for any allocation pi.
    LINEAR: post-jump wealth W * (1 - pi), only meaningful for pi < 1
    (the position cannot lose more than everything).
    """

    EXPONENTIAL = "exponential"
    LINEAR = "linear"

    def log_wealth_drop(self, pi):
        """Jump size of log-wealth at default for stock weight ``pi``."""
        pi_arr = np.asarray(pi, dtype=float)
        if self is DefaultLossModel.EXPONENTIAL:
            out = -pi_arr
        else:
            if np.any(pi_arr >= 1.0):
                raise ConfigError("linear loss requires pi < 1 (wealth would hit zero)")
            out = np.log1p(-pi_arr)
        return float(out) if pi_arr.ndim == 0 else out


@dataclass(frozen=True)
class MarketParams:
    """Defaultable-stock market over a fixed horizon.

    mu, r and h are per unit time, sigma per sqrt unit time. h >= 0 is the
    default hazard (instantaneous switch intensity); w0 is initial wealth.
    """

    mu: float
    sigma: float
    r: float
    h: float
    horizon_T: float
    w0: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.mu, self.sigma, self.r,
                                              self.h, self.horizon_T, self.w0)):
            raise ValueError("market parameters must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.horizon_T <= 0.0:
            raise ValueError("horizon_T must be positive")
        if self.w0 <= 0.0:
            raise ValueError("w0 must be positive")
        if self.h < 0.0:
            raise ValueError("hazard h must be non-negative")


@dataclass(frozen=True)
class RegimeControlProblem:
    """Generic 1-D control problem with an absorbing regime switch.

    State dynamics are dx = drift(t, x, u) dt + vol(t, x, u) dB per regime;
    the switch fires at constant intensity ``hazard`` and relocates the state
    through ``jump_map``. Objective: minimize E[int C(t, x, u) dt + D(x_T)]
    over controls constrained to ``control_bounds``.

    All callables must be pure and broadcast over numpy arrays (plain
    ufunc arithmetic on the arguments qualifies). Instances are immutable
    and safe to share across workers. The callables of the post-switch march
    (``drift_post``, ``vol_post``, ``running_cost``) and ``jump_map`` may run
    in a forked worker process (see ``hjb.solve_system``), ``jump_map``
    possibly more than once per step time, so their side effects are not
    seen by the caller. Those of a march that does not run to its end may
    run a second time in the caller, which then solves serially.
    """

    drift_pre: Callable
    vol_pre: Callable
    drift_post: Callable
    vol_post: Callable
    hazard: float
    jump_map: Callable
    running_cost: Callable
    terminal_cost: Callable
    control_bounds: Tuple[float, float]
    horizon: float

    def __post_init__(self):
        lo, hi = self.control_bounds
        if not (lo < hi):
            raise ConfigError("control_bounds must satisfy u_lo < u_hi")
        # written so that NaN fails: the solver would take a NaN hazard for zero
        if not 0.0 <= self.hazard < math.inf:
            raise ValueError("hazard must be finite and non-negative")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and positive")


@dataclass(frozen=True)
class FCurve:
    """Samples of the deterministic time component f(t) of the pre-switch value.

    times is strictly increasing, ends at the horizon, and f(horizon) = 0.
    The arrays given are frozen in place, not copied: the solver hands over
    arrays of its own.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times.setflags(write=False)
        self.values.setflags(write=False)


DEFAULT_CONTROL_BOUNDS = (0.0, 3.0)


def merton_as_generic(params: MarketParams,
                      loss: DefaultLossModel = DefaultLossModel.EXPONENTIAL,
                      control_bounds: Tuple[float, float] = DEFAULT_CONTROL_BOUNDS,
                      ) -> RegimeControlProblem:
    """Cast the defaultable-stock market as a generic two-regime problem.

    State coordinate is log-wealth x = log W, so the pre-default dynamics
    under stock weight u are

        dx = (r + u*(mu - r) - u^2 sigma^2 / 2) dt + u*sigma dB,

    the post-default regime is riskless growth dx = r dt, and default
    shifts x by the loss model's log drop. The objective is posed as a
    minimization of -x_T (equivalently, maximize expected log wealth).
    The problem judges the bounds, then the loss model judges u_hi: linear
    loss with u_hi >= 1 is a ConfigError.
    """
    mu, sigma, r = params.mu, params.sigma, params.r

    def drift_pre(t, x, u):
        return r + u * (mu - r) - 0.5 * u * u * sigma * sigma

    def vol_pre(t, x, u):
        return u * sigma

    problem = RegimeControlProblem(
        drift_pre=drift_pre,
        vol_pre=vol_pre,
        drift_post=lambda t, x, u: r,
        vol_post=lambda t, x, u: 0.0,
        hazard=params.h,
        jump_map=lambda t, x, u: x + loss.log_wealth_drop(u),
        running_cost=lambda t, x, u: 0.0,
        terminal_cost=lambda x: -x,
        control_bounds=control_bounds,
        horizon=params.horizon_T,
    )
    loss.log_wealth_drop(control_bounds[1])
    return problem
