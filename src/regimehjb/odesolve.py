"""Numerical integration of the f(t) terminal-value equation.

Second, closed-form-free route to f(t): classical fixed-step RK4 on the
linear equation, run backward from f(T) = 0. Kept deliberately independent
of `closedform.f_closed_form` so the two can cross-check each other.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .closedform import FCoefficientVariant, f_ode_coefficients
from .model import ConfigError, FCurve, MarketParams


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step RK4 settings.

    The step is adjusted downward so that it divides the horizon into an
    integer number of intervals (count rounded up).
    """

    step: float = 1e-4

    def __post_init__(self):
        if not self.step > 0.0:        # written so that NaN fails
            raise ValueError("step must be positive")

    def n_intervals(self, horizon: float) -> int:
        # the -1e-9 guard keeps e.g. step=1e-4, T=1 at exactly 10000 intervals
        # despite binary rounding of T/step
        return max(1, math.ceil(horizon / self.step - 1e-9))

    def stable_step(self, params: MarketParams) -> float:
        """The step ds = T / n_intervals(T) taken on params' horizon.

        The equation decays at rate h, so RK4 multiplies an error by
        R(-h ds) = 1 + z + z^2/2 + z^3/6 + z^4/24 (z = -h ds) each step; a
        step with |R| > 1 (h ds beyond about 2.785) grows it without bound,
        which is a config error naming ode.step.
        """
        ds = params.horizon_T / self.n_intervals(params.horizon_T)
        z = -params.h * ds
        growth = abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))))
        if growth > 1.0:
            raise ConfigError(f"ode.step = {self.step!r} gives RK4 steps of {ds!r} that are "
                              f"unstable at h = {params.h!r}: |R(-h ds)| = {growth!r} > 1")
        return ds


def solve_f_backward(params: MarketParams,
                     variant: FCoefficientVariant = FCoefficientVariant.DERIVED,
                     cfg: OdeConfig = OdeConfig()) -> FCurve:
    """Integrate f'(t) = h f(t) - K - r - h r (T - t) backward from f(T) = 0.

    Reparameterized as forward integration in the remaining horizon
    s = T - t, so a single RK4 kernel handles the terminal-value problem:

        g(s) = f(T - s),   g'(s) = -h g(s) + K + r + h r s,   g(0) = 0.

    Returns an FCurve on the uniform grid including t = 0 and t = T; a step
    past RK4's stability limit is a ConfigError (see OdeConfig.stable_step).
    """
    k = f_ode_coefficients(params, variant)
    h, r, T = params.h, params.r, params.horizon_T
    ds = cfg.stable_step(params)
    n = cfg.n_intervals(T)
    nh, hr, half = -h, h * r, 0.5 * ds
    # each stage evaluates g' = -h*g + k + r + (h*r)*s inline and left to
    # right, as ((-h*g + k) + r) + (h*r)*s; the step count i is a float,
    # which holds the integer exactly below 2**53, so i*ds is the product an
    # int count gives. g goes straight into a C double array, so no per-step
    # object outlives its step
    values = array("d", [0.0])
    g = i = 0.0
    while i < n:
        s = i * ds
        mid = s + half
        k1 = nh * g + k + r + hr * s
        k2 = nh * (g + half * k1) + k + r + hr * mid
        k3 = nh * (g + half * k2) + k + r + hr * mid
        k4 = nh * (g + ds * k3) + k + r + hr * (s + ds)
        g += ds * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        values.append(g)
        i += 1.0

    times = np.linspace(0.0, T, n + 1)
    return FCurve(times=times, values=np.frombuffer(values)[::-1])
