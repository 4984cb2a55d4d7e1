"""Simulation-based verification of the constant-policy objective.

Terminal log wealth admits exact sampling under a constant policy (no time
stepping, hence no discretization bias): draw the default time from its
exponential law and the Brownian increment for the elapsed stretch, then
apply the default markdown and riskless growth for the remainder. Paths
are driven by the counter-based Philox generator so that path i's draws
are a pure function of (seed, stream, i): re-runs are bit-identical and
results do not depend on evaluation order.

A sweep keeps none of its draws. Each pass walks the leaves of numpy's
pairwise-summation tree (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 4.2), draws a leaf's normals and uniforms again,
inverts only the uniforms that can give a default before T and maps the
leaf under every policy; leaf sums are added in tree order, so estimates
are bitwise np.mean and np.std(ddof=1) of the per-policy formula. Threads
claim the leaves in tree order, and a claim draws its leaf's normals from
the pass's one normal stream before the next claim, so each pass draws
that stream once, in path order. A uniform takes one Philox word (Salmon
et al., SC'11), so a leaf's uniforms start at its first path's counter and
are drawn outside the claim. Results are bitwise independent of the worker
count and claim order, no public function runs off the caller's thread, an
error in a thread stops the others at their next claim, and memory stays a
few leaves a thread at any path count.
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

# a pass runs on at most this many threads, the caller's included
_MAX_WORKERS = 2

# np.add.reduce sums a float64 array by pairwise recursion, splitting n at
# n//2 - (n//2) % 8 down to unrolled blocks of at most 128; a sweep sums
# leaves of at most this many paths (tests/test_montecarlo.py pins the tree)
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
    """Invert the exponential survival law: tau = -ln(u) / h for uniform (0,1)
    draws u (vectorized); zero hazard never fires, reported as +inf."""
    if not h >= 0.0:        # written so that NaN fails
        raise ValueError("hazard must be non-negative")
    u_arr = np.array(u, dtype=float)      # a copy, turned into the times in place
    if not (np.all(u_arr > 0.0) and np.all(u_arr < 1.0)):     # NaN fails too
        raise ValueError("u must lie strictly inside (0, 1)")
    out = _default_times(h, u_arr)
    return float(out) if out.ndim == 0 else out


def _default_times(h: float, u: np.ndarray) -> np.ndarray:
    """Turn uniforms u in (0, 1) into the default times -ln(u) / h, in place:
    h = 0 gives +inf, and a subnormal h overflows to +inf, both exact."""
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
    z_flat, tau_flat = np.ravel(z_arr), np.ravel(tau_arr)
    law = _Policies(params, loss, [pi])
    offsets = np.flatnonzero(tau_flat < law.T)
    law.leaf(z_flat, offsets, tau_flat[offsets])
    out = law.fill(0, np.empty(z_flat.size))
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


class _Policies:
    """Terminal log wealth under a list of policies, one leaf of paths at a
    time, with the association of the formula in simulate_terminal_log_wealth:
    leaf keeps what no policy changes of a leaf's paths, fill writes one
    policy's values. The constructor raises for the first policy without a law.
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

    def free(self) -> None:
        """Let go of the last leaf's arrays before the next leaf's are made."""
        self.values = self.offsets = self.tau = self.sqrt_tau = self.z_hit = self.growth = None

    def leaf(self, z: np.ndarray, offsets: np.ndarray, tau: np.ndarray) -> None:
        """Take a leaf of paths whose normals are z, of which those at offsets
        default before T at times tau (all held until the next leaf call)."""
        self.run, self.values = range(0), None   # no policy's values for this leaf yet
        self.z, self.offsets, self.tau = z, offsets, tau
        self.sqrt_tau, self.z_hit = np.sqrt(tau), z[offsets]
        self.growth = self.r * (self.T - tau)

    def fill(self, j: int, out: np.ndarray) -> np.ndarray:
        """Write the last leaf's paths under policy j into out[:z.size] and
        return that slice."""
        if j not in self.run:
            # a run of policies from j, as many as fit a leaf's worth of values
            # (the last run's are freed first: a thread holds one run's at a time)
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


def _defaulted(h: float, T: float, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The offsets of the uniforms u in [0, 1) whose default times
    -ln(max(u, tiny)) / h fall before T, and those times, bitwise; only
    v = max(u, tiny) > c is inverted. Division rounds monotonically, so such
    a time needs -log(v) < h T, and with numpy's log within 2^-42 relative
    plus 2^-50 absolute, v > c follows with room for the rounding of c."""
    if h == 0.0:
        return np.empty(0, dtype=np.intp), np.empty(0)
    tiny, c = np.finfo(float).tiny, math.exp(-(h * T + 2.0 ** -48) * (1.0 + 2.0 ** -40))
    offsets = np.flatnonzero(u > (c if c >= tiny else -1.0))   # v > c for every u
    tau = u[offsets]
    # random() can return exactly 0; nudge to keep the inverse CDF finite
    tau = _default_times(h, np.maximum(tau, tiny, out=tau))
    kept = tau < T
    if not kept.all():      # a v just above c can still give T or later
        offsets, tau = offsets[kept], tau[kept]
    return offsets, tau


def _fold(n: int, cap: int, lo: int = 0):
    """Yield the bounds (a, b) of each leaf (a subtree of at most cap >= 128
    elements) of numpy's tree over elements lo..lo+n-1 in order, be sent each
    leaf's np.add.reduce, and return that of all n elements, bit for bit."""
    if n <= cap:
        return (yield lo, lo + n)
    half = n // 2 - (n // 2) % 8
    return (yield from _fold(half, cap, lo)) + (yield from _fold(n - half, cap, lo + half))


def _tree_sum(n: int, cap: int, leaf_sum):
    """_fold over elements 0..n-1, sent leaf_sum(a, b) for each leaf."""
    fold, sums = _fold(n, cap), None
    try:
        while True:
            sums = leaf_sum(*fold.send(sums))
    except StopIteration as end:
        return end.value


class _Pass:
    """One pass's leaves of averages of paths_per paths, claimed in tree
    order by whichever thread is free, each drawing its normals (one per
    width paths) from the pass's one normal stream as it is claimed, and the
    fold of their sums, which holds those ahead of the first missing."""

    def __init__(self, n: int, paths_per: int, width: int, normals: np.random.Generator,
                 stop: threading.Event):
        self.lock, self.stop, self.sums = threading.Lock(), stop, {}
        self.paths_per, self.width, self.normals = paths_per, width, normals
        cap = _LEAF_PATHS // paths_per
        self.claims, self.fold = _fold(n, cap), _fold(n, cap)
        self.next, self.wanted = next(self.claims), next(self.fold)[0]

    def claim(self, out: np.ndarray):   # the next leaf (a, b), its normals in out, or None
        with self.lock:     # the lock keeps the stream in path order
            leaf = self.next
            if leaf is None or self.stop.is_set():
                return None
            try:
                self.next = self.claims.send(0.0)    # a fold of zeros walks the leaves
            except StopIteration:
                self.next = None
            a, b = leaf
            self.normals.standard_normal(out=out[:self.paths_per * (b - a) // self.width])
            return leaf

    def done(self, a: int, sums: np.ndarray) -> None:
        with self.lock:
            self.sums[a] = sums
            try:
                while self.wanted in self.sums:
                    self.wanted = self.fold.send(self.sums.pop(self.wanted))[0]
            except StopIteration as end:
                self.total = end.value


# per thread: a non-finite value leaves a non-finite estimate, judged last
_quiet = functools.partial(np.errstate, over="ignore", invalid="ignore", divide="ignore")


def _reduce_policies(laws: List[_Policies], cfg: McConfig,
                     stop: threading.Event) -> List[McEstimate]:
    """Per policy of the laws (one per thread, each over the whole grid):
    np.mean of every path's terminal log wealth and np.std(units, ddof=1) /
    sqrt(units.size), bit for bit. In each pass a thread's claim draws its
    leaf's normals into z (antithetic: pairs (z, -z) from half as many), then
    the thread draws the leaf's uniforms into buf (none at h = 0) and maps the
    leaf into buf one policy at a time."""
    n, h, T = cfg.n_paths, laws[0].h, laws[0].T
    # antithetic pairs are correlated by construction; the independent
    # statistical unit is the pair average, reduced over the tree of n/2
    width = 2 if cfg.antithetic else 1          # paths per unit
    n_units, size = n // width, min(n, _LEAF_PATHS)
    buffers = [np.empty((2, size)) for _ in laws]
    normals = [np.empty(size // 2) if cfg.antithetic else z for z, _ in buffers]
    z_key, u_key = ((stream << 64) | cfg.seed for stream in (_Z_STREAM, _TAU_STREAM))

    def tree_sums(n_elems, paths_per, finish=None):
        # per policy, np.add.reduce over n_elems averages of paths_per paths
        walk = _Pass(n_elems, paths_per, width,
                     np.random.Generator(np.random.Philox(key=z_key)), stop)

        def work(k):
            law, (z, buf) = laws[k], buffers[k]
            with _quiet():
                while (claim := walk.claim(normals[k])) is not None:
                    a, b = claim
                    lo, hi = paths_per * a, paths_per * b
                    if h > 0.0:     # four uniforms a counter step; lo is a multiple of 8
                        uniforms = np.random.Generator(np.random.Philox(key=u_key,
                                                                        counter=lo // 4))
                        uniforms.random(out=buf[:hi - lo])
                    leaf = z[:hi - lo]
                    if cfg.antithetic:
                        leaf[0::2] = normals[k][:leaf.size // 2]
                        np.negative(leaf[0::2], out=leaf[1::2])
                    law.free()
                    law.leaf(leaf, *_defaulted(h, T, buf[:leaf.size]))
                    sums = np.empty(len(law.pis))
                    for j in range(sums.size):
                        vals = law.fill(j, buf)
                        if paths_per == 2:
                            vals = np.add(vals[0::2], vals[1::2], out=buf[:b - a])
                            np.multiply(vals, 0.5, out=vals)
                        sums[j] = np.add.reduce(vals if finish is None else finish(j, vals))
                    walk.done(a, sums)

        _in_threads([functools.partial(work, k) for k in range(len(laws))], stop)
        return walk.total

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
    """Estimate every policy on the grid with common random numbers (one
    draw set, so the empirical argmax is a low-variance comparison) by
    min(CPUs, leaves, policies, _MAX_WORKERS) threads, each with a _Policies
    over the whole grid built on the caller's thread before any draw. The
    threads take turns drawing normals, one claimed leaf at a time, and map
    their leaves side by side; a lone policy stays on the caller's thread,
    where a short estimate such as verify's runs fastest. Returns the
    estimates and the maximizing index (ties resolve to the smallest pi)."""
    pi_arr = np.asarray(pi_grid, dtype=float)
    if pi_arr.ndim != 1 or pi_arr.size == 0:
        raise ValueError("pi_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(pi_arr)):
        raise ValueError("pi_grid must be finite")
    if pi_arr.size > 1 and not np.all(np.diff(pi_arr) > 0.0):
        raise ValueError("pi_grid must be strictly ascending")

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)      # not every platform has an affinity
    leaves = _tree_sum(cfg.n_paths, _LEAF_PATHS, lambda a, b: 1)
    with _quiet():       # every law, lowest policy first, before any draw
        laws = [_Policies(params, loss, [float(pi) for pi in pi_arr])
                for _ in range(min(cpus, leaves, pi_arr.size, _MAX_WORKERS))]
    points = list(zip(laws[0].pis, _reduce_policies(laws, cfg, threading.Event())))
    for pi, est in points:
        if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
            raise NumericalError(f"the Monte Carlo estimate at pi={pi!r} is not finite")
    return points, int(np.argmax([est.mean for _, est in points]))


def _in_threads(tasks, stop: threading.Event) -> None:
    """Call every task, the first in the caller thread and each other one on
    a thread of its own; once all have finished, re-raise the first task's
    exception in list order. An exception sets stop for the tasks to end
    early; a KeyboardInterrupt (in a task or the caller's wait) comes first."""
    errors, interrupts, done = [None] * len(tasks), [], [threading.Event() for _ in tasks]

    def interrupted(exc):
        stop.set()
        if not isinstance(exc, Exception):
            interrupts.append(exc)
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
