"""Simulation-based verification of the constant-policy objective.

Terminal log wealth admits exact sampling under a constant policy (no time
stepping, hence no discretization bias): draw the default time from its
exponential law and the Brownian increment for the elapsed stretch, then
apply the default markdown and riskless growth for the remainder. Paths
are driven by the counter-based Philox generator so that path i's draws
are a pure function of (seed, stream, i): re-runs are bit-identical and
results do not depend on evaluation order.

A sweep keeps one per-path table of its draws: surviving paths enter a
policy only through z, and the paths that default before T are kept as
indices with their default time. The policies are mapped and reduced one
leaf at a time along numpy's pairwise-summation tree (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., 4.2): a leaf of at most
_LEAF_PATHS paths is mapped into a reused buffer and summed with
np.add.reduce, and the leaf sums are added in tree order. A second pass
maps each leaf again and sums its squared deviations from the mean.
Antithetic mode takes its unit mean and deviations over the n/2 tree of
pair averages. Each pass walks the leaves once for a block of policies,
which evaluates a leaf's defaulted paths for all of them at once. The
means and standard errors are bitwise those of evaluating the
terminal-law formula per policy over every path and reducing with np.mean
and np.std(ddof=1). A mean or standard error that is not finite raises
NumericalError.

The work runs on up to _MAX_WORKERS threads (fewer when the process may
use fewer CPUs or the grid has fewer policies). The normals are drawn
whole on a helper thread while the caller draws the uniforms one leaf at
a time (Philox draws made in consecutive pieces equal one large draw;
Salmon et al., SC'11), turns them into default times and keeps the paths
that default. The policy grid is then cut into contiguous shares, the
first for the caller's thread. numpy releases the GIL in the draws and
the array passes. Every policy is still reduced whole by one thread, so
results are bitwise independent of the worker count, and a failing sweep
raises the error of its lowest failing policy, as a serial loop would.
Memory is the normal draws and the table of defaulted paths, plus per
worker a leaf buffer and a scratch for one leaf's defaulted paths under a
block of policies, which holds about a leaf's worth of values.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .closedform import policy_log_drift
from .model import ConfigError, DefaultLossModel, MarketParams, NumericalError

# stream tags mixed into the 128-bit Philox key; default times and
# diffusion draws come from independent streams
_TAU_STREAM = 1
_Z_STREAM = 2

# a sweep spreads its policies over at most this many threads, the caller's
# included
_MAX_WORKERS = 2

# np.add.reduce sums a contiguous float64 array by pairwise recursion: it
# splits n elements at n//2 - (n//2) % 8, down to unrolled blocks of at most
# 128. The sum of a subtree is np.add.reduce of its slice, so a sweep sums
# leaves of at most this many paths and adds the leaf sums in tree order
# (tests/test_montecarlo.py pins this on the installed numpy)
_LEAF_PATHS = 65536


@dataclass(frozen=True)
class McConfig:
    """Path count, seed and antithetic switch for one estimation run."""

    n_paths: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if not isinstance(self.n_paths, numbers.Integral) or isinstance(self.n_paths, bool):
            raise ValueError("n_paths must be an integer")
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
    z_flat, tau_flat = np.ravel(z_arr), np.ravel(tau_arr)
    hit = np.flatnonzero(tau_flat < params.horizon_T)
    law = _Policies(_PathTable(z_flat, hit, tau_flat[hit]), params, loss, [pi],
                    np.empty(2 * hit.size))
    if law.error is not None:
        raise law.error
    out = law.fill(0, 0, z_flat.size, law.defaulted(0, z_flat.size), np.empty(z_flat.size))
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


class _PathTable:
    """The draws of every path, as the terminal law uses them.

    A path that survives to T enters only through its normal draw z. The
    paths that default before T are kept as ascending indices, with their
    default time.
    """

    def __init__(self, z: np.ndarray, hit: np.ndarray, tau_hit: np.ndarray):
        self.z, self.hit, self.tau_hit = z, hit, tau_hit


class _Policies:
    """Terminal log wealth under a block of policies, one path range at a
    time, with the association of the formula in simulate_terminal_log_wealth.

    defaulted evaluates a range's defaulted paths under every policy of the
    block at once, in scratch: room for 2 x policies x the defaulted paths
    of any range asked for. fill then writes one policy's values of the
    range into a caller's buffer. The block ends before the first policy
    whose law raises (a linear loss at pi >= 1, say), and error holds that
    exception for the caller to raise once it has checked the policies
    before it.
    """

    def __init__(self, table: _PathTable, params: MarketParams, loss: DefaultLossModel,
                 pis, scratch: np.ndarray):
        T = self.T = params.horizon_T
        self.r = params.r
        self.table = table
        self.log_w0 = math.log(params.w0)
        self.pis, self.error = [], None
        # per policy: scale and shift of a survivor's z, and (as columns)
        # the drift, z scale and log drop of a defaulted path
        self.survived, cols = [], []
        for pi in pis:
            try:
                drop = loss.log_wealth_drop(pi)
                alpha = policy_log_drift(params, pi)
            except (ConfigError, NumericalError) as exc:   # raised by the caller
                self.error = exc
                break
            scale = pi * params.sigma
            self.pis.append(pi)
            self.survived.append((scale * math.sqrt(T), self.log_w0 + alpha * T))
            cols.append((alpha, scale, drop))
        self.alpha, self.scale, self.drop = np.reshape(cols, (-1, 3)).T[:, :, None]
        self.scratch = scratch

    def defaulted(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Offsets from lo of the defaulted paths among lo..hi-1, and their
        values under every policy of the block (one row each), valid until
        the next call."""
        t = self.table
        k = slice(*t.hit.searchsorted((lo, hi)))
        hit, tau = t.hit[k], t.tau_hit[k]
        shape = (2, len(self.pis), tau.size)
        vals, tmp = self.scratch[:math.prod(shape)].reshape(shape)
        # log w0 + alpha tau + scale sqrt(tau) z + drop + r (T - tau), left to right
        np.add(self.log_w0, np.multiply(self.alpha, tau, out=vals), out=vals)
        np.multiply(self.scale, np.sqrt(tau), out=tmp)
        np.add(vals, np.multiply(tmp, t.z[hit], out=tmp), out=vals)
        np.add(vals, self.drop, out=vals)
        np.add(vals, self.r * (self.T - tau), out=vals)
        return hit - lo, vals

    def fill(self, j: int, lo: int, hi: int, defaulted, out: np.ndarray) -> np.ndarray:
        """Write paths lo..hi-1 under policy j into out[:hi - lo] and return
        that slice; defaulted is self.defaulted(lo, hi)."""
        scale, shift = self.survived[j]
        # every path as if it survived to T, then the defaulted ones
        out = np.multiply(self.table.z[lo:hi], scale, out=out[:hi - lo])
        np.add(out, shift, out=out)
        offsets, values = defaulted
        out[offsets] = values[j]
        return out


def _draw_table(params: MarketParams, cfg: McConfig) -> _PathTable:
    """The path table of cfg's draws.

    Element i of each stream belongs to path i. The normals are drawn whole
    on a helper thread; antithetic mode fills consecutive pairs (z, -z) from
    half as many normals. Meanwhile the caller draws the uniforms one leaf
    at a time, turns them into default times and keeps the paths that
    default before T. Each stream has its own generator, so the draws do
    not depend on the threads or the pieces.
    """
    T = params.horizon_T
    draws = {}

    def defaults():
        g_tau = np.random.Generator(np.random.Philox(key=(_TAU_STREAM << 64) | cfg.seed))
        hits, taus = [], []
        for lo in range(0, cfg.n_paths, _LEAF_PATHS):
            u = g_tau.random(min(_LEAF_PATHS, cfg.n_paths - lo))
            # random() can return exactly 0; nudge to keep the inverse-CDF finite
            tau = sample_default_time(params.h, np.maximum(u, np.finfo(float).tiny, out=u))
            hit = np.flatnonzero(tau < T)
            taus.append(tau[hit])
            hits.append(np.add(hit, lo, out=hit))
        draws["hit"], draws["tau_hit"] = np.concatenate(hits), np.concatenate(taus)

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

    # the caller's thread runs sample_default_time: tracers of the public
    # functions keep one span stack
    _in_threads([defaults, normals])
    return _PathTable(draws["z"], draws["hit"], draws["tau_hit"])


def _tree_sum(n: int, cap: int, leaf_sum, lo: int = 0):
    """np.add.reduce over elements lo..lo+n-1, bit for bit, from
    leaf_sum(a, b), np.add.reduce of elements a..b-1 for each subtree of at
    most cap (>= 128) elements of numpy's pairwise tree, added in tree order
    (elementwise, when leaf_sum returns an array of such sums)."""
    if n <= cap:
        return leaf_sum(lo, lo + n)
    half = n // 2 - (n // 2) % 8
    return _tree_sum(half, cap, leaf_sum, lo) + _tree_sum(n - half, cap, leaf_sum, lo + half)


def _reduce_policies(law: _Policies, cfg: McConfig, buf: np.ndarray) -> List[McEstimate]:
    """For each policy of the block: np.mean of every path's terminal log wealth
    and np.std(units, ddof=1) / sqrt(units.size), bit for bit.

    Each pass walks the leaves of numpy's tree once for the whole block,
    mapping one policy's leaf of at most _LEAF_PATHS paths at a time into
    buf: a leaf of normals is read from memory once per pass and block, and
    then stays in cache for the block's other policies.
    """
    n = cfg.n_paths
    # antithetic pairs are correlated by construction; the independent
    # statistical unit is the pair average, reduced over the tree of n/2
    width = 2 if cfg.antithetic else 1          # paths per unit
    n_units = n // width

    def tree_sums(n_elems, paths_per, finish=None):
        """Per policy, np.add.reduce over n_elems elements, each the average
        of paths_per consecutive paths, passed through finish(j, leaf)."""
        def leaf_sums(lo, hi):
            defaulted = law.defaulted(paths_per * lo, paths_per * hi)
            sums = np.empty(len(law.pis))
            for j in range(sums.size):
                vals = law.fill(j, paths_per * lo, paths_per * hi, defaulted, buf)
                if paths_per == 2:
                    vals = np.add(vals[0::2], vals[1::2], out=buf[:hi - lo])
                    np.multiply(vals, 0.5, out=vals)
                sums[j] = np.add.reduce(vals if finish is None else finish(j, vals))
            return sums

        return _tree_sum(n_elems, _LEAF_PATHS // paths_per, leaf_sums)

    means = tree_sums(n, 1) / n
    units_means = tree_sums(n_units, width) / n_units if cfg.antithetic else means

    def squared_deviations(j, vals):
        np.subtract(vals, units_means[j], out=vals)
        return np.square(vals, out=vals)

    std_errors = (np.sqrt(tree_sums(n_units, width, squared_deviations) / (n_units - 1))
                  / math.sqrt(n_units))
    return [McEstimate(mean=float(mean), std_error=float(se), n_paths=n, seed=cfg.seed)
            for mean, se in zip(means, std_errors)]


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

    table = _draw_table(params, cfg)
    points: List[Tuple[float, McEstimate]] = [None] * pi_arr.size

    # a block of policies evaluates a leaf's defaulted paths at once, in a
    # scratch of at most a leaf's size (unless one policy needs more)
    hit = table.hit
    most_hit = int(np.max(np.searchsorted(hit, hit + _LEAF_PATHS) - np.arange(hit.size),
                          initial=1))
    block = max(1, _LEAF_PATHS // (2 * most_hit))

    def estimate_range(lo: int, hi: int) -> None:
        buf = np.empty(min(cfg.n_paths, _LEAF_PATHS))
        scratch = np.empty(2 * min(block, hi - lo) * most_hit)
        # numpy's error state is per thread; a non-finite intermediate
        # leaves a non-finite mean or std, which raises
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(lo, hi, block):
                law = _Policies(table, params, loss,
                                [float(pi) for pi in pi_arr[start:min(start + block, hi)]],
                                scratch)
                ests = _reduce_policies(law, cfg, buf)
                for idx, (pi, est) in enumerate(zip(law.pis, ests), start):
                    if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
                        raise NumericalError(f"the Monte Carlo estimate at pi={pi!r} "
                                             "is not finite")
                    points[idx] = (pi, est)
                if law.error is not None:
                    raise law.error

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
