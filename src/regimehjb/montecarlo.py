"""Simulation-based verification of the constant-policy objective.

Terminal log wealth admits exact sampling under a constant policy (no time
stepping, hence no discretization bias): draw the default time from its
exponential law and the Brownian increment for the elapsed stretch, then
apply the default markdown and riskless growth for the remainder. Paths
are driven by the counter-based Philox generator so that path i's draws
are a pure function of (seed, stream, i): re-runs are bit-identical and
results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .closedform import policy_log_drift
from .model import DefaultLossModel, MarketParams

# stream tags mixed into the 128-bit Philox key; default times and
# diffusion draws come from independent streams
_TAU_STREAM = 1
_Z_STREAM = 2


@dataclass(frozen=True)
class McConfig:
    """Path count, seed and antithetic switch for one estimation run."""

    n_paths: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic pairing requires an even n_paths")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of terminal log wealth with its standard error."""

    mean: float
    std_error: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error cannot be negative")


def sample_default_time(h: float, u):
    """Invert the exponential survival law: tau = -ln(u) / h.

    u is a uniform (0,1) draw (vectorized over arrays); zero hazard means
    the switch never fires, reported as +inf.
    """
    if h < 0.0:
        raise ValueError("hazard must be non-negative")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    if h == 0.0:
        out = np.full_like(u_arr, np.inf)
    else:
        out = -np.log(u_arr) / h
    return float(out) if out.ndim == 0 else out


def simulate_terminal_log_wealth(params: MarketParams, pi: float,
                                 loss: DefaultLossModel, z, tau):
    """Exact terminal log wealth for one (z, tau) draw (vectorized).

    With alpha the policy log drift and L the loss model's log drop:

        tau >= T:  log w0 + alpha T + pi sigma sqrt(T) z
        tau <  T:  log w0 + alpha tau + pi sigma sqrt(tau) z + L + r (T - tau)
    """
    drop = loss.log_wealth_drop(pi)
    alpha = policy_log_drift(params, pi)
    z_arr, tau_arr = np.broadcast_arrays(np.asarray(z, dtype=float),
                                         np.asarray(tau, dtype=float))
    if np.any(np.isnan(tau_arr)) or np.any(tau_arr < 0.0):
        raise ValueError("tau must be a non-negative time or +inf")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    tau_arr = np.atleast_1d(tau_arr)

    T = params.horizon_T
    log_w0 = math.log(params.w0)
    scale = pi * params.sigma
    out = np.empty(z_arr.shape)
    hit = tau_arr < T
    out[~hit] = log_w0 + alpha * T + scale * math.sqrt(T) * z_arr[~hit]
    td = tau_arr[hit]
    out[hit] = (log_w0 + alpha * td + scale * np.sqrt(td) * z_arr[hit]
                + drop + params.r * (T - td))
    return float(out[0]) if scalar else out


def _draw_streams(cfg: McConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform draws for default times and normals for the diffusion.

    Element i of each stream belongs to path i. Antithetic mode fills
    consecutive pairs (z, -z) from half as many normals.
    """
    g_tau = np.random.Generator(np.random.Philox(key=(_TAU_STREAM << 64) | cfg.seed))
    g_z = np.random.Generator(np.random.Philox(key=(_Z_STREAM << 64) | cfg.seed))
    u = g_tau.random(cfg.n_paths)
    # random() can return exactly 0; nudge to keep the inverse-CDF finite
    u = np.maximum(u, np.finfo(float).tiny)
    if cfg.antithetic:
        half = g_z.standard_normal(cfg.n_paths // 2)
        z = np.empty(cfg.n_paths)
        z[0::2] = half
        z[1::2] = -half
    else:
        z = g_z.standard_normal(cfg.n_paths)
    return u, z


def _summarize(vals: np.ndarray, cfg: McConfig) -> McEstimate:
    # antithetic pairs are correlated by construction; the independent
    # statistical unit is the pair average
    units = 0.5 * (vals[0::2] + vals[1::2]) if cfg.antithetic else vals
    se = float(np.std(units, ddof=1) / math.sqrt(units.size))
    return McEstimate(mean=float(np.mean(vals)), std_error=se,
                      n_paths=cfg.n_paths, seed=cfg.seed)


def estimate(params: MarketParams, pi: float, loss: DefaultLossModel,
             cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of expected terminal log wealth for one policy
    (a one-point sweep: the same draws and arithmetic as every sweep point)."""
    return sweep(params, loss, [pi], cfg)[0][0][1]


def sweep(params: MarketParams, loss: DefaultLossModel, pi_grid,
          cfg: McConfig) -> Tuple[List[Tuple[float, McEstimate]], int]:
    """Estimate every policy on the grid with common random numbers.

    The same (tau, z) draws are reused for every grid point, so the
    empirical argmax is a low-variance comparison. Returns the per-point
    estimates and the maximizing index (ties resolve to the smallest pi).
    """
    pi_arr = np.asarray(pi_grid, dtype=float)
    if pi_arr.ndim != 1 or pi_arr.size == 0:
        raise ValueError("pi_grid must be a non-empty 1-D array")
    if pi_arr.size > 1 and not np.all(np.diff(pi_arr) > 0.0):
        raise ValueError("pi_grid must be strictly ascending")

    u, z = _draw_streams(cfg)
    tau = sample_default_time(params.h, u)
    points: List[Tuple[float, McEstimate]] = []
    means = np.empty(pi_arr.size)
    for idx, pi in enumerate(pi_arr):
        vals = simulate_terminal_log_wealth(params, float(pi), loss, z, tau)
        est = _summarize(vals, cfg)
        points.append((float(pi), est))
        means[idx] = est.mean
    return points, int(np.argmax(means))
