"""Simulation-based verification of the constant-policy objective.

Terminal log wealth admits exact sampling under a constant policy (no time
stepping, hence no discretization bias): draw the default time from its
exponential law and the Brownian increment for the elapsed stretch, then
apply the default markdown and riskless growth for the remainder. Paths
are driven by the counter-based Philox generator so that path i's draws
are a pure function of (seed, stream, i): re-runs are bit-identical and
results do not depend on evaluation order.

A sweep builds one per-path table from the draws: surviving paths enter
a policy only through z, and the paths that default before T are kept
with their default time, its square root, their z and their riskless
growth. Each policy then maps the table into one reused buffer, which the
summary also uses as its deviation scratch. The values, means and
standard errors are bitwise those of evaluating the terminal-law formula
per policy and reducing with np.mean and np.std(ddof=1). A mean or
standard error that is not finite raises NumericalError.

The work runs on up to _MAX_WORKERS threads (fewer when the process may
use fewer CPUs or the grid has fewer policies): the normals are drawn
beside the uniforms, and the policy grid is cut into contiguous shares,
the first for the caller's thread. numpy releases the GIL in the draws and
the array passes. Every policy is still mapped and reduced whole by one
thread, so results are bitwise independent of the worker count, and a
failing sweep raises the error of its lowest failing policy, as a serial
loop would. Memory is the normal draws, the table of defaulted paths and
one n_paths buffer per worker.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .closedform import policy_log_drift
from .model import DefaultLossModel, MarketParams, NumericalError

# stream tags mixed into the 128-bit Philox key; default times and
# diffusion draws come from independent streams
_TAU_STREAM = 1
_Z_STREAM = 2

# a sweep spreads its policies over at most this many threads, the caller's
# included
_MAX_WORKERS = 2


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
        if self.antithetic and self.n_paths < 4:
            # the standard error is taken over pair averages, with ddof=1
            raise ValueError("antithetic pairing needs at least two pairs (n_paths >= 4)")


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
        # a subnormal h overflows the quotient to +inf, the exact answer
        with np.errstate(over="ignore"):
            out = -np.log(u_arr) / h
    return float(out) if out.ndim == 0 else out


def simulate_terminal_log_wealth(params: MarketParams, pi: float,
                                 loss: DefaultLossModel, z, tau):
    """Exact terminal log wealth for one (z, tau) draw (vectorized).

    With alpha the policy log drift and L the loss model's log drop:

        tau >= T:  log w0 + alpha T + pi sigma sqrt(T) z
        tau <  T:  log w0 + alpha tau + pi sigma sqrt(tau) z + L + r (T - tau)
    """
    z_arr, tau_arr = np.broadcast_arrays(np.asarray(z, dtype=float),
                                         np.asarray(tau, dtype=float))
    if np.any(np.isnan(tau_arr)) or np.any(tau_arr < 0.0):
        raise ValueError("tau must be a non-negative time or +inf")
    table = _PathTable(params, np.ravel(z_arr), np.ravel(tau_arr))
    out = table.terminal_log_wealth(params, pi, loss, np.empty(table.z.size))
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


class _PathTable:
    """Per-path quantities of the terminal law that no policy changes.

    A path that survives to T enters only through its normal draw z. The
    paths that default before T are kept as indices, with their default
    time, its square root, their z and their riskless growth r (T - tau).
    """

    def __init__(self, params: MarketParams, z: np.ndarray, tau: np.ndarray):
        T = params.horizon_T
        self.z = z
        self.hit = np.flatnonzero(tau < T)
        self.tau_hit = tau[self.hit]
        self.sqrt_tau_hit = np.sqrt(self.tau_hit)
        self.z_hit = z[self.hit]
        self.growth = params.r * (T - self.tau_hit)

    def terminal_log_wealth(self, params: MarketParams, pi: float,
                            loss: DefaultLossModel, out: np.ndarray) -> np.ndarray:
        """Write every path's terminal log wealth under policy pi into out,
        with the association of the formula in simulate_terminal_log_wealth."""
        drop = loss.log_wealth_drop(pi)
        alpha = policy_log_drift(params, pi)
        T = params.horizon_T
        log_w0 = math.log(params.w0)
        scale = pi * params.sigma
        # every path as if it survived to T, then the defaulted ones
        np.multiply(self.z, scale * math.sqrt(T), out=out)
        np.add(out, log_w0 + alpha * T, out=out)
        out[self.hit] = (log_w0 + alpha * self.tau_hit + scale * self.sqrt_tau_hit * self.z_hit
                         + drop + self.growth)
        return out


def _draw_streams(cfg: McConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform draws for default times and normals for the diffusion.

    Element i of each stream belongs to path i. Antithetic mode fills
    consecutive pairs (z, -z) from half as many normals. The normals are
    drawn on a helper thread while the caller draws the uniforms; each
    stream has its own generator, so the draws do not depend on that.
    """
    draws = {}

    def uniforms():
        g_tau = np.random.Generator(np.random.Philox(key=(_TAU_STREAM << 64) | cfg.seed))
        u = g_tau.random(cfg.n_paths)
        # random() can return exactly 0; nudge to keep the inverse-CDF finite
        draws["u"] = np.maximum(u, np.finfo(float).tiny, out=u)

    def normals():
        g_z = np.random.Generator(np.random.Philox(key=(_Z_STREAM << 64) | cfg.seed))
        if cfg.antithetic:
            half = g_z.standard_normal(cfg.n_paths // 2)
            z = np.empty(cfg.n_paths)
            z[0::2] = half
            z[1::2] = -half
        else:
            z = g_z.standard_normal(cfg.n_paths)
        draws["z"] = z

    _in_threads([uniforms, normals])
    return draws["u"], draws["z"]


def _summarize(vals: np.ndarray, cfg: McConfig) -> McEstimate:
    """np.mean(vals) and np.std(units, ddof=1) / sqrt(units.size), bit for bit,
    with vals itself as the deviation scratch (its contents are lost)."""
    mean = np.add.reduce(vals) / vals.size
    # antithetic pairs are correlated by construction; the independent
    # statistical unit is the pair average
    if cfg.antithetic:
        units = vals[:vals.size // 2]
        np.add(vals[0::2], vals[1::2], out=units)
        np.multiply(units, 0.5, out=units)
        units_mean = np.add.reduce(units) / units.size
    else:
        units, units_mean = vals, mean
    np.subtract(units, units_mean, out=units)
    np.square(units, out=units)
    std = np.sqrt(np.add.reduce(units) / (units.size - 1))
    return McEstimate(mean=float(mean), std_error=float(std / math.sqrt(units.size)),
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
    table = _PathTable(params, z, sample_default_time(params.h, u))
    del u
    points: List[Tuple[float, McEstimate]] = [None] * pi_arr.size

    def estimate_range(lo: int, hi: int) -> None:
        vals = np.empty(cfg.n_paths)
        # numpy's error state is per thread; a non-finite intermediate
        # leaves a non-finite mean or std, which raises
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for idx in range(lo, hi):
                pi = float(pi_arr[idx])
                table.terminal_log_wealth(params, pi, loss, vals)
                est = _summarize(vals, cfg)
                if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
                    raise NumericalError(f"the Monte Carlo estimate at pi={pi!r} "
                                         "is not finite")
                points[idx] = (pi, est)

    # contiguous shares in grid order: the first share that fails holds the
    # lowest failing policy, the one a serial loop would report
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)      # not every platform has an affinity
    n_workers = min(cpus, pi_arr.size, _MAX_WORKERS)
    edges = [pi_arr.size * w // n_workers for w in range(n_workers + 1)]
    _in_threads([functools.partial(estimate_range, lo, hi)
                 for lo, hi in zip(edges[:-1], edges[1:])])
    return points, int(np.argmax([est.mean for _, est in points]))


def _in_threads(tasks) -> None:
    """Call every task, the first in the caller thread and each other one on
    a thread of its own, and return when all have finished. If any raised,
    re-raise the exception of the first such task in list order."""
    errors = [None] * len(tasks)

    def run(k):
        try:
            tasks[k]()
        except Exception as exc:      # handed to the caller below
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(tasks))]
    try:
        for thread in threads:
            thread.start()
        run(0)
    finally:
        for thread in threads:
            if thread.ident is not None:     # started
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
