"""Simulation-based verification of the constant-policy objective.

Terminal log wealth admits exact sampling under a constant policy (no time
stepping, hence no discretization bias): draw the default time from its
exponential law and the Brownian increment for the elapsed stretch, then
apply the default markdown and riskless growth for the remainder. Paths
are driven by the counter-based Philox generator so that path i's draws
are a pure function of (seed, stream, i): re-runs are bit-identical and
results do not depend on evaluation order.

A sweep keeps none of its draws: each pass draws a leaf's normals and
uniforms again and finds the leaf's paths that default before T;
surviving paths enter a policy only through their normal draw z. The
policies are mapped and reduced one leaf at a time along numpy's
pairwise-summation tree (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 4.2): a leaf of at most _LEAF_PATHS paths is mapped
into a reused buffer and summed with np.add.reduce, and the leaf sums are
added in tree order. A second pass maps each leaf again and sums its
squared deviations from the mean. Antithetic mode takes its unit mean and
deviations over the n/2 tree of pair averages. Each pass walks the leaves
once for all of a thread's policies: a leaf's defaulted paths are found
once, and their values are evaluated for a run of policies at a time, as
many as fit a leaf's worth of memory. The means and standard errors are
bitwise those of evaluating the terminal-law formula per policy over
every path and reducing with np.mean and np.std(ddof=1).

The policy grid is cut into contiguous shares, one per thread, up to
_MAX_WORKERS threads (fewer when the process may use fewer CPUs or the
grid has fewer policies), the first for the caller's thread. Each share
draws its own normals and uniforms, leaf by leaf in tree order, from a
fresh generator of each stream at the start of each pass (Philox draws
made in consecutive pieces equal one large draw; Salmon et al., SC'11),
so no share waits on another, and no public function of this module runs
off the caller's thread. numpy releases the GIL in the draws and the
array passes. Every policy is still reduced whole by one thread, so
results are bitwise independent of the worker count. The shares only
compute: the caller builds their policies first, so the lowest policy
without a law raises before anything is drawn, and once every share has
finished it raises NumericalError for the lowest policy whose mean or
standard error is not finite. An error in a share is raised before that
(the first share's); a KeyboardInterrupt stops every other share at its
next leaf and is raised first. Every thread is joined before the sweep
returns or raises.
Memory is, per share, a leaf of normals, a leaf buffer, the policy-free
parts of one leaf's defaulted paths and their values under a run of
policies, a few leaves' worth in all: it does not grow with the path
count, at any hazard.
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
from .model import DefaultLossModel, MarketParams, NumericalError

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
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        # plain ints: a numpy integer cannot hold the Philox key the seed goes
        # into, and json cannot write one
        object.__setattr__(self, "n_paths", int(self.n_paths))
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if not isinstance(self.antithetic, bool):
            raise ValueError("antithetic must be a bool")
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


def sample_default_time(h: float, u):
    """Invert the exponential survival law: tau = -ln(u) / h.

    u is a uniform (0,1) draw (vectorized over arrays); zero hazard means
    the switch never fires, reported as +inf.
    """
    if not h >= 0.0:        # written so that NaN fails
        raise ValueError("hazard must be non-negative")
    u_arr = np.array(u, dtype=float)      # a copy, turned into the times in place
    if not (np.all(u_arr > 0.0) and np.all(u_arr < 1.0)):     # NaN fails too
        raise ValueError("u must lie strictly inside (0, 1)")
    out = _default_times(h, u_arr)
    return float(out) if out.ndim == 0 else out


def _default_times(h: float, u: np.ndarray) -> np.ndarray:
    """Turn uniforms u in (0, 1) into the default times -ln(u) / h, in place.

    -ln(u) is positive, so h = 0 gives +inf, and a subnormal h overflows the
    quotient to +inf: both are the exact answer.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return np.divide(np.negative(np.log(u, out=u), out=u), h, out=u)


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
    z_flat = np.ravel(z_arr)
    law = _Policies(params, loss, [pi])
    law.leaf(z_flat, np.ravel(tau_arr))
    out = law.fill(0, np.empty(z_flat.size))
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


class _Policies:
    """Terminal log wealth under a list of policies, one leaf of paths at a
    time, with the association of the formula in simulate_terminal_log_wealth.

    leaf takes one leaf's normals and default times, finds the paths that
    default before T and keeps what no policy changes of them; fill then
    writes one policy's values of that leaf into a caller's buffer. The
    first policy without a law (a linear loss at pi >= 1, say) raises its
    error from the constructor, before anything is drawn.
    """

    def __init__(self, params: MarketParams, loss: DefaultLossModel, pis):
        T = self.T = params.horizon_T
        self.r, self.h = params.r, params.h
        self.log_w0 = math.log(params.w0)
        self.pis = pis
        # per policy: scale and shift of a survivor's z, and (as columns)
        # the drift, z scale and log drop of a defaulted path
        self.survived, cols = [], []
        for pi in pis:
            drop = loss.log_wealth_drop(pi)
            alpha = policy_log_drift(params, pi)
            scale = pi * params.sigma
            self.survived.append((scale * math.sqrt(T), self.log_w0 + alpha * T))
            cols.append((alpha, scale, drop))
        self.alpha, self.scale, self.drop = np.transpose(cols)[:, :, None]

    def leaf(self, z: np.ndarray, tau: np.ndarray) -> None:
        """Take a leaf of paths whose normals are z (held until the next leaf
        call) and whose default times are tau (free once this returns)."""
        self.run, self.values = range(0), None   # no policy's values for this leaf yet
        self.z = z
        self.offsets = np.flatnonzero(tau < self.T)
        self.tau = tau[self.offsets]
        self.sqrt_tau, self.z_hit = np.sqrt(self.tau), z[self.offsets]
        self.growth = self.r * (self.T - self.tau)

    def fill(self, j: int, out: np.ndarray) -> np.ndarray:
        """Write the last leaf's paths under policy j into out[:z.size] and
        return that slice."""
        if j not in self.run:
            # a run of policies from j, as many as fit a leaf's worth of values
            # (the last run's are freed first: a share holds one run's at a time)
            size = max(1, _LEAF_PATHS // max(1, 2 * self.tau.size))
            self.run, self.values = range(j, min(j + size, len(self.pis))), None
            rows = slice(j, self.run.stop)
            vals, tmp = np.empty((2, len(self.run), self.tau.size))
            # log w0 + alpha tau + scale sqrt(tau) z + drop + r (T - tau), left to right
            np.add(self.log_w0, np.multiply(self.alpha[rows], self.tau, out=vals), out=vals)
            np.multiply(self.scale[rows], self.sqrt_tau, out=tmp)
            np.add(vals, np.multiply(tmp, self.z_hit, out=tmp), out=vals)
            np.add(vals, self.drop[rows], out=vals)
            np.add(vals, self.growth, out=vals)
            self.values = vals
        scale, shift = self.survived[j]
        # every path as if it survived to T, then the defaulted ones
        out = np.multiply(self.z, scale, out=out[:self.z.size])
        np.add(out, shift, out=out)
        out[self.offsets] = self.values[j - self.run.start]
        return out


def _tree_sum(n: int, cap: int, leaf_sum, lo: int = 0):
    """np.add.reduce over elements lo..lo+n-1, bit for bit, from
    leaf_sum(a, b), np.add.reduce of elements a..b-1 for each subtree of at
    most cap (>= 128) elements of numpy's pairwise tree, added in tree order
    (elementwise, when leaf_sum returns an array of such sums)."""
    if n <= cap:
        return leaf_sum(lo, lo + n)
    half = n // 2 - (n // 2) % 8
    return _tree_sum(half, cap, leaf_sum, lo) + _tree_sum(n - half, cap, leaf_sum, lo + half)


def _reduce_policies(law: _Policies, cfg: McConfig,
                     stop: threading.Event) -> List[McEstimate]:
    """For each of law's policies: np.mean of every path's terminal log wealth
    and np.std(units, ddof=1) / sqrt(units.size), bit for bit.

    Each pass walks the leaves of numpy's tree once for all the policies.
    It draws each leaf's normals into z and its uniforms into buf, each
    from a fresh generator of its stream started at the pass's first leaf
    (antithetic mode fills pairs (z, -z) from half as many normals; at
    h = 0 no uniforms are drawn), and turns the uniforms into default
    times in place. law.leaf then keeps the leaf's defaulted paths, and
    one policy's leaf of at most _LEAF_PATHS paths at a time is mapped
    into buf: a leaf of draws stays in cache for the other policies, and
    its defaulted paths are found once per pass. A leaf taken once stop is
    set raises InterruptedError.
    """
    n = cfg.n_paths
    # antithetic pairs are correlated by construction; the independent
    # statistical unit is the pair average, reduced over the tree of n/2
    width = 2 if cfg.antithetic else 1          # paths per unit
    n_units = n // width
    z, buf = np.empty((2, min(n, _LEAF_PATHS)))
    half = np.empty(z.size // 2 if cfg.antithetic else 0)

    def tree_sums(n_elems, paths_per, finish=None):
        """Per policy, np.add.reduce over n_elems elements, each the average
        of paths_per consecutive paths, passed through finish(j, leaf)."""
        g_z, g_tau = (np.random.Generator(np.random.Philox(key=(stream << 64) | cfg.seed))
                      for stream in (_Z_STREAM, _TAU_STREAM))

        def leaf_sums(lo, hi):
            if stop.is_set():
                raise InterruptedError("another share of the sweep was interrupted")
            leaf, tau = z[:paths_per * (hi - lo)], buf[:paths_per * (hi - lo)]
            if cfg.antithetic:
                leaf[0::2] = g_z.standard_normal(out=half[:leaf.size // 2])
                np.negative(leaf[0::2], out=leaf[1::2])
            else:
                g_z.standard_normal(out=leaf)
            if law.h == 0.0:
                tau.fill(np.inf)
            else:
                # random() can return exactly 0; nudge to keep the inverse CDF finite
                g_tau.random(out=tau)
                _default_times(law.h, np.maximum(tau, np.finfo(float).tiny, out=tau))
            law.leaf(leaf, tau)
            sums = np.empty(len(law.pis))
            for j in range(sums.size):
                vals = law.fill(j, buf)
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
    empirical argmax is a low-variance comparison. Each thread's share of
    the grid is one _Policies, built on the caller's thread before any
    share starts and reduced in one walk of the leaves per pass over draws
    that the share makes itself; the caller judges the estimates once every
    share has finished. Returns the per-point estimates and the maximizing
    index (ties resolve to the smallest pi).
    """
    pi_arr = np.asarray(pi_grid, dtype=float)
    if pi_arr.ndim != 1 or pi_arr.size == 0:
        raise ValueError("pi_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(pi_arr)):
        raise ValueError("pi_grid must be finite")
    if pi_arr.size > 1 and not np.all(np.diff(pi_arr) > 0.0):
        raise ValueError("pi_grid must be strictly ascending")

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)      # not every platform has an affinity
    n_workers = min(cpus, pi_arr.size, _MAX_WORKERS)
    edges = [pi_arr.size * w // n_workers for w in range(n_workers + 1)]
    # numpy's error state is per thread; a non-finite intermediate leaves a
    # non-finite mean or std, judged once every share has finished
    quiet = functools.partial(np.errstate, over="ignore", invalid="ignore", divide="ignore")
    with quiet():       # every law, lowest policy first, before any draw
        laws = [_Policies(params, loss, [float(pi) for pi in pi_arr[lo:hi]])
                for lo, hi in zip(edges[:-1], edges[1:])]
    shares = [None] * n_workers
    stop = threading.Event()      # set by a KeyboardInterrupt

    def reduce_share(k: int) -> None:
        with quiet():
            shares[k] = _reduce_policies(laws[k], cfg, stop)

    _in_threads([functools.partial(reduce_share, k) for k in range(n_workers)], stop)
    points = [point for law, ests in zip(laws, shares) for point in zip(law.pis, ests)]
    for pi, est in points:
        if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
            raise NumericalError(f"the Monte Carlo estimate at pi={pi!r} is not finite")
    return points, int(np.argmax([est.mean for _, est in points]))


def _in_threads(tasks, stop: threading.Event) -> None:
    """Call every task, the first in the caller thread and each other one on
    a thread of its own, and return when all have finished. If any raised,
    re-raise the exception of the first such task in list order. A
    KeyboardInterrupt, in a task or while the caller waits for the others,
    sets stop for the tasks to end early and is raised before any error."""
    errors, interrupts, done = [None] * len(tasks), [], [threading.Event() for _ in tasks]

    def interrupted(exc):
        if not isinstance(exc, Exception):
            interrupts.append(exc)
            stop.set()
        return exc

    def run(k):
        try:
            tasks[k]()
        except BaseException as exc:      # handed to the caller below
            errors[k] = interrupted(exc)
        finally:
            done[k].set()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(tasks))]
    try:
        for thread in threads:
            thread.start()
        run(0)
    finally:
        # join a thread only once its task is done: CPython 3.11 marks a
        # thread whose join is interrupted as stopped while it still runs
        for k, thread in enumerate(threads, 1):
            if thread.ident is None:         # not started
                continue
            while not done[k].is_set():
                try:
                    done[k].wait()
                except BaseException as exc:     # the caller's wait is interrupted
                    interrupted(exc)
            thread.join()
    for exc in interrupts[:1] + errors:
        if exc is not None:
            raise exc
