import dataclasses
import inspect
import json
import math
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import interior_optimum_markets, losses, markets, policy

from regimehjb import montecarlo
from regimehjb.closedform import (expected_log_utility_exact, optimal_weight,
                                  policy_log_drift)
from regimehjb.model import ConfigError, DefaultLossModel, MarketParams, NumericalError
from regimehjb.montecarlo import (McConfig, McEstimate, _in_threads, estimate,
                                  sample_default_time,
                                  simulate_terminal_log_wealth, sweep)

EXP = DefaultLossModel.EXPONENTIAL
LIN = DefaultLossModel.LINEAR

ACCEPT = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)
NO_HAZARD = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=1.0)


class TestConfigs:
    def test_mc_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=1, seed=0)
        with pytest.raises(ValueError):
            McConfig(n_paths=100, seed=-1)
        with pytest.raises(ValueError):
            McConfig(n_paths=100, seed=2 ** 64)
        with pytest.raises(ValueError):
            McConfig(n_paths=101, seed=0, antithetic=True)
        McConfig(n_paths=4, seed=0, antithetic=True)   # two pairs: the fewest

    @pytest.mark.parametrize("n_paths", [1e4, np.float64(1e4), True, "10000"])
    def test_mc_config_rejects_a_path_count_that_is_not_an_integer(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be an integer"):
            McConfig(n_paths=n_paths, seed=0)
        assert McConfig(n_paths=np.int64(10_000), seed=0).n_paths == 10_000

    def test_a_numpy_integer_path_count_is_reported_as_an_int(self):
        cfg = McConfig(n_paths=np.int64(100), seed=1)
        assert type(cfg.n_paths) is int and cfg.n_paths == 100
        est = estimate(ACCEPT, 0.5, EXP, cfg)
        assert type(est.n_paths) is int
        json.dumps(dataclasses.asdict(est))
        assert est == estimate(ACCEPT, 0.5, EXP, McConfig(n_paths=100, seed=1))

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "5", None])
    def test_mc_config_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            McConfig(n_paths=100, seed=seed)

    def test_a_numpy_integer_seed_gives_that_seeds_draws(self):
        cfg = McConfig(n_paths=100, seed=np.int64(5))
        assert type(cfg.seed) is int and cfg.seed == 5
        est = estimate(ACCEPT, 0.5, EXP, cfg)
        assert type(est.seed) is int
        assert est == estimate(ACCEPT, 0.5, EXP, McConfig(n_paths=100, seed=5))

    @pytest.mark.parametrize("antithetic", ["no", 0, 1, None])
    def test_mc_config_rejects_an_antithetic_switch_that_is_not_a_bool(self, antithetic):
        with pytest.raises(ValueError, match="antithetic must be a bool"):
            McConfig(n_paths=100, seed=0, antithetic=antithetic)


class TestSampleDefaultTime:
    def test_zero_hazard_never_fires(self):
        assert sample_default_time(0.0, 0.5) == math.inf
        out = sample_default_time(0.0, np.array([0.1, 0.9]))
        assert np.all(np.isinf(out))

    def test_inverse_cdf_identity(self):
        assert sample_default_time(1.0, math.exp(-1.0)) == pytest.approx(1.0,
                                                                         abs=1e-15)

    def test_empirical_cdf_matches_exponential(self):
        h = 0.02
        rng = np.random.Generator(np.random.Philox(key=424242))
        u = rng.random(1_000_000)
        u = np.maximum(u, np.finfo(float).tiny)
        tau = sample_default_time(h, u)
        p_hat = np.mean(tau <= 1.0)
        p = -math.expm1(-h)  # 0.019801...
        stderr = math.sqrt(p * (1 - p) / u.size)
        assert abs(p_hat - p) <= 3 * stderr

    def test_subnormal_hazard_draws_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tau = sample_default_time(1e-310, np.array([0.5, 1.0 - 1e-16]))
        assert tau[0] == math.inf and math.isfinite(tau[1])

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_range_uniforms(self, u):
        with pytest.raises(ValueError):
            sample_default_time(0.5, u)

    @pytest.mark.parametrize("u", [math.nan, np.array([0.5, math.nan])])
    def test_rejects_nan_uniforms(self, u):
        with pytest.raises(ValueError, match="strictly inside"):
            sample_default_time(0.02, u)

    def test_rejects_negative_hazard(self):
        with pytest.raises(ValueError):
            sample_default_time(-0.1, 0.5)

    @pytest.mark.parametrize("h", [math.nan, np.float64("nan")])
    def test_rejects_nan_hazard(self, h):
        # a NaN default time is not < T, so its path would pass as a survivor
        with pytest.raises(ValueError, match="hazard"):
            sample_default_time(h, np.array([0.25, 0.5]))


class TestDefaultedPaths:
    @staticmethod
    def _around(x, k=64):
        """x and the k floats on each side of it, kept inside [0, 1)."""
        steps = np.array([x]).view(np.int64) + np.arange(-k, k + 1)
        vals = steps[steps >= 0].view(np.float64)
        return vals[vals < 1.0]

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("h", [0.0, 1e-310, 1e-300, 0.02, 5.0, 1e300])
    def test_defaulted_paths_are_the_full_inverse_cdfs(self, h, T):
        # the inverse CDF taken only above the rounding margin gives the
        # offsets and times of the inverse CDF over every uniform, bit for bit
        tiny = np.finfo(float).tiny
        edges = [math.exp(-h * T), math.exp(-(h * T + 2.0 ** -48) * (1.0 + 2.0 ** -40)),
                 0.0, tiny, 1.0 - 2.0 ** -53]
        rng = np.random.Generator(np.random.Philox(key=17))
        u = np.concatenate([self._around(x) for x in edges]
                           + [[0.0, tiny, 2.0 ** -53, 0.5], rng.random(100_000)])
        rng.shuffle(u)
        before = u.copy()
        offsets, tau = montecarlo._defaulted(h, T, u)
        full = sample_default_time(h, np.maximum(u, tiny))
        expected = np.flatnonzero(full < T)
        assert offsets.tobytes() == expected.tobytes()
        assert tau.tobytes() == full[expected].tobytes()
        assert u.tobytes() == before.tobytes()
        if h in (0.02, 5.0):       # defaults on both sides of the cut
            assert 0 < offsets.size < u.size


class TestSimulateTerminalLogWealth:
    def test_all_cash_never_defaults(self):
        got = simulate_terminal_log_wealth(ACCEPT, 0.0, EXP, z=1.7, tau=math.inf)
        assert got == math.log(ACCEPT.w0) + 0.02

    def test_all_cash_default_is_costless(self):
        got = simulate_terminal_log_wealth(ACCEPT, 0.0, EXP, z=0.3, tau=0.5)
        assert got == pytest.approx(math.log(ACCEPT.w0) + 0.02, abs=1e-16)

    def test_mean_matches_exact_oracle(self):
        n = 1_000_000
        rng_u = np.random.Generator(np.random.Philox(key=1))
        rng_z = np.random.Generator(np.random.Philox(key=2))
        u = np.maximum(rng_u.random(n), np.finfo(float).tiny)
        tau = sample_default_time(ACCEPT.h, u)
        z = rng_z.standard_normal(n)
        vals = simulate_terminal_log_wealth(ACCEPT, 1.0, EXP, z, tau)
        exact = expected_log_utility_exact(ACCEPT, 1.0, EXP)
        stderr = np.std(vals, ddof=1) / math.sqrt(n)
        assert abs(np.mean(vals) - exact) <= 3 * stderr

    def test_linear_total_loss_rejected(self):
        with pytest.raises(ValueError):
            simulate_terminal_log_wealth(ACCEPT, 1.0, LIN, z=0.0, tau=0.5)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            simulate_terminal_log_wealth(ACCEPT, 0.5, EXP, z=0.0, tau=-0.1)


class TestEstimate:
    def test_degenerate_case_is_exact(self):
        est = estimate(NO_HAZARD, 0.0, EXP, McConfig(n_paths=1000, seed=3))
        assert est.mean == math.log(NO_HAZARD.w0) + 0.02
        assert est.std_error == 0.0

    def test_fixed_seed_reproduces_bitwise(self):
        cfg = McConfig(n_paths=20_000, seed=77)
        assert estimate(ACCEPT, 1.0, EXP, cfg) == estimate(ACCEPT, 1.0, EXP, cfg)

    def test_path_draws_extend_with_n(self):
        # path i's draws depend only on (seed, i): growing n keeps the prefix
        lo = estimate(ACCEPT, 1.0, EXP, McConfig(n_paths=4096, seed=5))
        hi = estimate(ACCEPT, 1.0, EXP, McConfig(n_paths=8192, seed=5))
        assert lo.mean != hi.mean  # different sample sizes, same stream prefix
        assert lo.seed == hi.seed

    def test_within_three_stderr_of_oracle(self):
        est = estimate(ACCEPT, 1.0, EXP, McConfig(n_paths=100_000, seed=2026))
        exact = expected_log_utility_exact(ACCEPT, 1.0, EXP)
        assert abs(est.mean - exact) <= 3 * est.std_error

    def test_antithetic_reduces_stderr(self):
        plain = estimate(ACCEPT, 1.0, EXP, McConfig(n_paths=100_000, seed=11))
        anti = estimate(ACCEPT, 1.0, EXP,
                        McConfig(n_paths=100_000, seed=11, antithetic=True))
        assert anti.std_error < plain.std_error

    def test_four_stderr_coverage_across_seeds(self):
        exact = expected_log_utility_exact(ACCEPT, 1.0, EXP)
        hits = 0
        for seed in range(100):
            est = estimate(ACCEPT, 1.0, EXP, McConfig(n_paths=2000, seed=seed))
            hits += abs(est.mean - exact) <= 4 * est.std_error
        assert hits >= 99

    def test_sqrt_n_law(self):
        s1 = estimate(ACCEPT, 1.0, EXP, McConfig(n_paths=25_000, seed=5)).std_error
        s4 = estimate(ACCEPT, 1.0, EXP, McConfig(n_paths=100_000, seed=5)).std_error
        assert 1.6 <= s1 / s4 <= 2.4


class TestSweep:
    def test_single_point_grid(self):
        pts, idx = sweep(ACCEPT, EXP, [1.0], McConfig(n_paths=1000, seed=0))
        assert idx == 0 and pts[0][0] == 1.0

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            sweep(ACCEPT, EXP, [1.0, 0.5], McConfig(n_paths=1000, seed=0))
        with pytest.raises(ValueError):
            sweep(ACCEPT, EXP, [], McConfig(n_paths=1000, seed=0))

    @pytest.mark.parametrize("grid", [[math.nan], [0.0, math.inf], [0.0, math.nan],
                                      [-math.inf, 0.0]])
    def test_rejects_a_grid_that_is_not_finite(self, grid):
        with pytest.raises(ValueError, match="pi_grid must be finite"):
            sweep(ACCEPT, EXP, grid, McConfig(n_paths=1000, seed=0))
        if len(grid) == 1:
            with pytest.raises(ValueError, match="pi_grid must be finite"):
                estimate(ACCEPT, grid[0], EXP, McConfig(n_paths=1000, seed=0))

    def test_no_hazard_argmax_near_classic_weight(self):
        grid = np.round(np.arange(0.0, 3.0001, 0.05), 10)
        pts, idx = sweep(NO_HAZARD, EXP, grid, McConfig(n_paths=100_000, seed=2026))
        assert abs(pts[idx][0] - 1.5) <= 0.1

    def test_hazard_argmax_near_optimal_weight(self):
        grid = np.round(np.arange(0.0, 3.0001, 0.05), 10)
        pts, idx = sweep(ACCEPT, EXP, grid, McConfig(n_paths=100_000, seed=2026))
        assert abs(pts[idx][0] - optimal_weight(ACCEPT)) <= 0.1

    def test_common_random_numbers_stabilize_argmax(self):
        grid = np.round(np.arange(0.0, 3.0001, 0.05), 10)
        locations = []
        for seed in (101, 202, 303):
            pts, idx = sweep(ACCEPT, EXP, grid, McConfig(n_paths=100_000, seed=seed))
            locations.append(pts[idx][0])
        spread = max(locations) - min(locations)
        assert spread <= 0.05 + 1e-12  # argmax moves at most one grid step


# --------------------------------------------------------------------------
# bitwise reference: serial draws, and the per-policy terminal map and
# summary that the leaf-wise sweep replaced, kept here verbatim
# --------------------------------------------------------------------------

def _reference_draws(cfg):
    g_tau = np.random.Generator(np.random.Philox(key=(1 << 64) | cfg.seed))
    g_z = np.random.Generator(np.random.Philox(key=(2 << 64) | cfg.seed))
    u = g_tau.random(cfg.n_paths)
    u = np.maximum(u, np.finfo(float).tiny)
    if cfg.antithetic:
        half = g_z.standard_normal(cfg.n_paths // 2)
        z = np.empty(cfg.n_paths)
        z[0::2] = half
        z[1::2] = -half
    else:
        z = g_z.standard_normal(cfg.n_paths)
    return u, z


def _reference_terminal(params, pi, loss, z, tau):
    drop = loss.log_wealth_drop(pi)
    alpha = policy_log_drift(params, pi)
    z_arr, tau_arr = np.broadcast_arrays(np.asarray(z, dtype=float),
                                         np.asarray(tau, dtype=float))
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


def _reference_summarize(vals, cfg):
    units = 0.5 * (vals[0::2] + vals[1::2]) if cfg.antithetic else vals
    se = float(np.std(units, ddof=1) / math.sqrt(units.size))
    return McEstimate(mean=float(np.mean(vals)), std_error=se,
                      n_paths=cfg.n_paths, seed=cfg.seed)


def _reference_sweep(params, loss, pi_grid, cfg):
    u, z = _reference_draws(cfg)
    tau = sample_default_time(params.h, u)
    points = [(float(pi), _reference_summarize(
        _reference_terminal(params, float(pi), loss, z, tau), cfg)) for pi in pi_grid]
    return points, int(np.argmax([est.mean for _, est in points]))


def _assert_bitwise_sweep(params, loss, pi_grid, cfg):
    got_points, got_idx = sweep(params, loss, pi_grid, cfg)
    ref_points, ref_idx = _reference_sweep(params, loss, pi_grid, cfg)
    assert got_idx == ref_idx
    for (got_pi, got), (ref_pi, ref) in zip(got_points, ref_points, strict=True):
        # McEstimate equality compares floats with ==; also pin the bits
        assert got_pi == ref_pi and got == ref
        assert np.float64(got.mean).tobytes() == np.float64(ref.mean).tobytes()
        assert (np.float64(got.std_error).tobytes()
                == np.float64(ref.std_error).tobytes())


GRIDS = {EXP: [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0],
         LIN: [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95]}

# (n_paths, antithetic): tiny, odd, large, around numpy's ufunc buffer of
# 8192 elements, around one leaf of the sweep's reduction, and a size whose
# n/2 tree of antithetic pair averages has leaves that straddle those of
# its n tree
UFUNC_BUFFER = 8192
LEAF = montecarlo._LEAF_PATHS
PATH_CASES = [(2, False), (7, False), (100_001, False), (200_000, False),
              (200_000, True), (UFUNC_BUFFER - 1, False), (UFUNC_BUFFER, False),
              (UFUNC_BUFFER, True), (UFUNC_BUFFER + 1, False),
              (LEAF - 1, False), (LEAF, False), (LEAF + 1, False), (131_088, True)]


class _WorkerSpy:
    """Forces the sweep's worker count through _MAX_WORKERS and the CPU
    affinity, and records, per pass, the number of threads that claim its
    leaves, and every such thread."""

    def __init__(self, monkeypatch, max_workers, cpus):
        self.monkeypatch = monkeypatch
        monkeypatch.setattr(montecarlo, "_MAX_WORKERS", max_workers)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        self.cap = min(max_workers, cpus)
        self.passes, self.threads = [], set()
        in_threads = montecarlo._in_threads

        def task(fn):
            def call():
                self.threads.add(threading.current_thread())
                return fn()
            return call

        def spy(tasks, stop):
            self.passes.append(len(tasks))
            return in_threads([task(fn) for fn in tasks], stop)

        monkeypatch.setattr(montecarlo, "_in_threads", spy)

    def expect(self, n_paths, n_policies=7):
        """The thread count of every pass of a sweep over n_paths paths and
        n_policies policies (seven: a GRIDS sweep)."""
        return min(self.cap, _leaf_count(n_paths), n_policies)


def _leaf_count(n_paths):
    return montecarlo._tree_sum(n_paths, montecarlo._LEAF_PATHS, lambda a, b: 1)


def _spy_claims(monkeypatch):
    """Record every claimed leaf as (thread, first path, end path)."""
    claims, claim = [], montecarlo._Pass.claim

    def spy_claim(walk, out):
        got = claim(walk, out)
        if got is not None:
            a, b = got
            claims.append((threading.current_thread(), walk.paths_per * a, walk.paths_per * b))
        return got

    monkeypatch.setattr(montecarlo._Pass, "claim", spy_claim)
    return claims


# (_MAX_WORKERS, CPUs): one CPU; two threads; more threads than the seven
# policies of a GRIDS sweep, which then runs a thread per leaf, up to seven
@pytest.fixture(params=[(2, 1), (2, 2), (16, 16)],
                ids=["one-cpu", "two-workers", "more-workers-than-policies"])
def workers(request, monkeypatch):
    return _WorkerSpy(monkeypatch, *request.param)


class TestSweepReferenceEquivalence:
    @pytest.mark.parametrize("loss", [EXP, LIN], ids=["exp", "lin"])
    @pytest.mark.parametrize("w0,horizon", [(1.0, 1.0), (2.5, 2.0)])
    @pytest.mark.parametrize("h", [0.0, 1e-310, 0.02, 5.0])
    def test_sweep_is_bitwise_the_per_policy_reference(self, h, w0, horizon, loss):
        params = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=h,
                              horizon_T=horizon, w0=w0)
        for seed, (n_paths, antithetic) in enumerate(PATH_CASES):
            cfg = McConfig(n_paths=n_paths, seed=seed, antithetic=antithetic)
            _assert_bitwise_sweep(params, loss, GRIDS[loss], cfg)

    @pytest.mark.parametrize("loss", [EXP, LIN], ids=["exp", "lin"])
    @pytest.mark.parametrize("h", [0.0, 1e-310, 0.02, 5.0])
    def test_sweep_is_bitwise_the_reference_at_any_worker_count(self, h, loss, workers):
        params = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=h, horizon_T=2.0, w0=2.5)
        for seed, (n_paths, antithetic) in enumerate(PATH_CASES):
            cfg = McConfig(n_paths=n_paths, seed=seed, antithetic=antithetic)
            workers.passes.clear()
            _assert_bitwise_sweep(params, loss, GRIDS[loss], cfg)
            assert set(workers.passes) == {workers.expect(n_paths)}

    def test_many_workers_switching_often_stay_bitwise(self, monkeypatch):
        # more threads than cores, claiming leaves of 256 paths and switching
        # every microsecond: a lost or misplaced leaf sum or normal draw would
        # break the equality (the pair-average tree's leaves need >= 128)
        monkeypatch.setattr(montecarlo, "_LEAF_PATHS", 256)
        workers = _WorkerSpy(monkeypatch, max_workers=32, cpus=32)
        grid = np.linspace(0.0, 3.0, 25).tolist()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed, (n_paths, antithetic) in enumerate([(7, False), (UFUNC_BUFFER, True),
                                                          (100_001, False)]):
                workers.passes.clear()
                cfg = McConfig(n_paths=n_paths, seed=seed, antithetic=antithetic)
                _assert_bitwise_sweep(ACCEPT, EXP, grid, cfg)
                assert set(workers.passes) == {workers.expect(n_paths, len(grid))}
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("loss", [EXP, LIN], ids=["exp", "lin"])
    def test_wrapper_is_bitwise_the_reference_on_any_shape(self, loss):
        rng = np.random.Generator(np.random.Philox(key=31))
        z = rng.standard_normal((3, UFUNC_BUFFER + 5))
        tau = np.where(rng.random((3, 1)) < 0.5, 0.25, np.inf)  # broadcasts
        tau[0, 0] = ACCEPT.horizon_T                              # tau == T
        got = simulate_terminal_log_wealth(ACCEPT, 0.5, loss, z, tau)
        assert got.shape == z.shape
        assert got.tobytes() == _reference_terminal(ACCEPT, 0.5, loss, z, tau).tobytes()
        for zi, ti in [(1.3, 0.0), (-0.7, 0.5), (0.2, math.inf), (0.0, 1.0)]:
            got = simulate_terminal_log_wealth(ACCEPT, 0.5, loss, zi, ti)
            assert isinstance(got, float)
            assert got == _reference_terminal(ACCEPT, 0.5, loss, zi, ti)

    def test_wrapper_leaves_its_inputs_alone(self):
        z = np.array([0.5, -1.0])
        tau = np.array([3.0, 0.5])
        simulate_terminal_log_wealth(ACCEPT, 1.0, EXP, z, tau)
        assert z.tolist() == [0.5, -1.0] and tau.tolist() == [3.0, 0.5]


class TestLeafwiseReduction:
    # every size up to 1100, then log-spaced sizes up to 2.1e6
    SIZES = list(range(1, 1101)) + sorted({int(v) for v in np.geomspace(1101, 2.1e6, 120)})

    @pytest.mark.parametrize("cap", [128, 4096, 65536])
    def test_leaf_sums_fold_to_numpys_sum_bit_for_bit(self, cap):
        # the sweep's means and spreads rest on this; a numpy that changes its
        # reduction must fail here, not change report bytes
        rng = np.random.Generator(np.random.Philox(key=cap))
        data = rng.standard_normal(self.SIZES[-1]) * 10.0 ** rng.integers(-8, 9, self.SIZES[-1])
        for n in self.SIZES:
            x, leaves = data[:n], []

            def leaf_sum(lo, hi):
                leaves.append((lo, hi))
                return np.add.reduce(x[lo:hi])

            got = montecarlo._tree_sum(n, cap, leaf_sum)
            assert got.tobytes() == np.add.reduce(x).tobytes(), n
            assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]]
            assert leaves[-1][1] == n and all(hi - lo <= cap for lo, hi in leaves)

    def test_straddling_antithetic_trees(self):
        # the pair-average tree's leaves (in paths) straddle the path tree's
        def leaf_ends(n_units, cap, width):
            ends = set()

            def record(lo, hi):
                ends.add(width * hi)
                return 0.0

            montecarlo._tree_sum(n_units, cap, record)
            return ends

        assert leaf_ends(131_088 // 2, LEAF // 2, 2) - leaf_ends(131_088, LEAF, 1)

    def test_a_sweep_calls_no_public_function_off_the_callers_thread(self, monkeypatch):
        # tracers wrap the public functions with one span stack
        threads = []

        def spy(fn):
            def call(*args, **kwargs):
                threads.append(threading.current_thread())
                return fn(*args, **kwargs)
            return call

        for name, fn in list(vars(montecarlo).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == montecarlo.__name__):
                monkeypatch.setattr(montecarlo, name, spy(fn))
        _WorkerSpy(monkeypatch, max_workers=2, cpus=2)
        params = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=5.0, horizon_T=1.0, w0=1.0)
        for antithetic in (False, True):
            montecarlo.sweep(params, EXP, GRIDS[EXP],
                             McConfig(n_paths=3 * LEAF + 6, seed=4, antithetic=antithetic))
        assert threads and set(threads) == {threading.current_thread()}

    @staticmethod
    def _traced_peak(params, cfg):
        sweep(params, EXP, GRIDS[EXP], McConfig(n_paths=100, seed=0))   # first-call imports
        tracemalloc.start()
        try:
            sweep(params, EXP, GRIDS[EXP], cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("h", [0.02, 5.0], ids=["low-hazard", "high-hazard"])
    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_peak_memory_is_a_few_leaves_per_share(self, monkeypatch, max_workers,
                                                   antithetic, h):
        # per share, a count of leaves that does not grow with the path count:
        # a leaf of normals (and half a leaf in antithetic mode), a leaf buffer
        # that holds the uniforms until they are default times, a leaf's worth
        # of values under a run of policies, and five arrays over one leaf's
        # defaulted paths (2.3-3.0 leaves a share measured at h = 0.02, 7.3-7.8
        # at h = 5); a table of the defaulted paths would add 16-32 bytes a
        # defaulted path, and a whole-array draw 8 bytes a path
        _WorkerSpy(monkeypatch, max_workers, cpus=2)
        params = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=h, horizon_T=1.0, w0=1.0)
        peak = self._traced_peak(params, McConfig(n_paths=400_000, seed=3,
                                                  antithetic=antithetic))
        defaulted = -math.expm1(-h * params.horizon_T)
        assert peak < max_workers * (4 + 5 * defaulted) * 8 * LEAF

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_peak_memory_does_not_grow_with_the_path_count(self, monkeypatch, max_workers,
                                                           antithetic):
        # at h = 5 nearly every path defaults: four times the paths, the same
        # peak to within one leaf
        _WorkerSpy(monkeypatch, max_workers, cpus=2)
        params = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=5.0, horizon_T=1.0, w0=1.0)
        small, large = (self._traced_peak(params, McConfig(n_paths=n_paths, seed=3,
                                                           antithetic=antithetic))
                        for n_paths in (400_000, 1_600_000))
        assert large <= small + 8 * LEAF

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("h", [0.02, 5.0])
    def test_each_pass_reads_each_leaf_once_per_share(self, monkeypatch, h, antithetic):
        # each pass reads each leaf once, in whichever thread claimed it; each
        # leaf's normals and defaulted paths are its paths' draws
        workers = _WorkerSpy(monkeypatch, max_workers=2, cpus=2)
        claims = _spy_claims(monkeypatch)
        n_paths = 3 * LEAF + 6
        cfg = McConfig(n_paths=n_paths, seed=5, antithetic=antithetic)
        u_ref, z_ref = _reference_draws(cfg)
        params = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=h, horizon_T=1.0, w0=1.0)
        read, read_leaf = [], montecarlo._Policies.leaf

        def spy(law, z, offsets, tau):
            lo = next(lo for thread, lo, _ in reversed(claims)
                      if thread is threading.current_thread())
            read.append((lo, lo + z.size))
            assert z.tobytes() == z_ref[lo:lo + z.size].tobytes()
            tau_ref = sample_default_time(h, u_ref[lo:lo + z.size])
            offsets_ref = np.flatnonzero(tau_ref < params.horizon_T)
            assert offsets.tobytes() == offsets_ref.tobytes()
            assert tau.tobytes() == tau_ref[offsets_ref].tobytes()
            return read_leaf(law, z, offsets, tau)

        monkeypatch.setattr(montecarlo._Policies, "leaf", spy)
        sweep(params, EXP, GRIDS[EXP], cfg)

        def leaves_of(n_units, width):
            leaves = []

            def record(lo, hi):
                leaves.append((width * lo, width * hi))
                return 0.0

            montecarlo._tree_sum(n_units, LEAF // width, record)
            return leaves

        # plain: the mean and the deviations over the n tree; antithetic:
        # the mean over the n tree, then two passes over the n/2 tree
        passes = ([leaves_of(n_paths, 1)] + [leaves_of(n_paths // 2, 2)] * 2 if antithetic
                  else [leaves_of(n_paths, 1)] * 2)
        assert workers.passes == [2] * len(passes)
        every_leaf = sorted(leaf for walk in passes for leaf in walk)
        assert sorted((lo, hi) for _, lo, hi in claims) == sorted(read) == every_leaf


def _spy_normals(monkeypatch, before_draw, before_uniforms=None, after_draw=None):
    """Route the module's generators through a wrapper that calls
    before_draw(generator, count) ahead of each normal draw of count numbers
    into an array, after_draw(generator, out) once it is drawn into out, and
    before_uniforms(generator, count) ahead of each uniform draw. A normal
    draw that returns a new array (the reference's) is not seen."""
    generator = np.random.Generator

    class Spy:
        def __init__(self, bit_generator):
            self.real = generator(bit_generator)
            self.bit_generator = bit_generator

        def random(self, *args, out=None, **kwargs):
            if before_uniforms is not None:
                before_uniforms(self, args[0] if out is None else out.size)
            return self.real.random(*args, out=out, **kwargs)

        def standard_normal(self, *args, out=None, **kwargs):
            if out is None:
                return self.real.standard_normal(*args, **kwargs)
            before_draw(self, out.size)
            self.real.standard_normal(*args, out=out, **kwargs)
            if after_draw is not None:
                after_draw(self, out)
            return out

    monkeypatch.setattr(montecarlo.np.random, "Generator", Spy)


def _fail_at_leaf(monkeypatch, failures):
    """failures maps k to exc: the k-th leaf read (counted from 1 over every
    pass, in whichever thread) raises exc. Returns the leaves each thread
    has read, a dict filled in as the sweep runs, and per leaf that raised,
    a copy of that dict taken as it raised."""
    counts, at_raise, lock = {}, {}, threading.Lock()
    read_leaf = montecarlo._Policies.leaf

    def spy(law, z, offsets, tau):
        with lock:
            thread = threading.current_thread()
            counts[thread] = counts.get(thread, 0) + 1
            k = sum(counts.values())
            if k in failures:
                at_raise[k] = dict(counts)
        if k in failures:
            raise failures[k]
        return read_leaf(law, z, offsets, tau)

    monkeypatch.setattr(montecarlo._Policies, "leaf", spy)
    return counts, at_raise


class TestNormalStream:
    # four leaves per pass of the n tree
    N_PATHS = 3 * LEAF + 6

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    def test_normals_are_drawn_once_per_pass_at_any_worker_count(self, workers, antithetic):
        # each claim draws its leaf's normals, so each pass draws each leaf's
        # normals once in all
        drawn, lock = [], threading.Lock()

        def record(generator, count):
            with lock:
                drawn.append(count)

        _spy_normals(workers.monkeypatch, record)
        claims = _spy_claims(workers.monkeypatch)
        cfg = McConfig(n_paths=self.N_PATHS, seed=6, antithetic=antithetic)
        sweep(ACCEPT, EXP, GRIDS[EXP], cfg)
        # plain: the mean and the deviations; antithetic: the mean, the pair
        # averages' mean and their deviations, from half as many normals
        passes, width = (3, 2) if antithetic else (2, 1)
        assert workers.passes == [workers.expect(self.N_PATHS)] * passes
        assert sum(drawn) == passes * self.N_PATHS // width
        assert len(drawn) == len(claims) and max(drawn) <= LEAF // width

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("max_workers", [1, 2, 16])
    def test_a_pass_draws_one_normal_stream_in_path_order(self, monkeypatch, max_workers,
                                                          antithetic):
        # leaves of 256 paths, threads switching every microsecond, and one
        # thread asleep inside a draw: each pass's normal draws, joined in the
        # order they were made, are the stream's first n // width normals, and
        # the sweep keeps the reference's bits
        monkeypatch.setattr(montecarlo, "_LEAF_PATHS", 256)
        workers = _WorkerSpy(monkeypatch, max_workers, cpus=max_workers)
        generator, counts, streams = np.random.Generator, [], {}

        def sleep_once(stream, count):
            counts.append(count)
            if len(counts) == 3:        # the first pass's third draw
                time.sleep(0.01)

        def record(stream, out):
            streams.setdefault(stream, []).append(out.copy())

        _spy_normals(monkeypatch, sleep_once, after_draw=record)
        cfg = McConfig(n_paths=20_006, seed=14, antithetic=antithetic)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _assert_bitwise_sweep(ACCEPT, EXP, GRIDS[EXP], cfg)
        finally:
            sys.setswitchinterval(interval)
        width = 2 if antithetic else 1
        expected = generator(np.random.Philox(key=(2 << 64) | cfg.seed)).standard_normal(
            cfg.n_paths // width)
        passes = [np.concatenate(draws) for draws in streams.values()]
        assert len(passes) == len(workers.passes) == (3 if antithetic else 2)
        assert all(drawn.tobytes() == expected.tobytes() for drawn in passes)
        assert set(workers.passes) == {workers.expect(cfg.n_paths)}

    @pytest.mark.parametrize("h", [0.0, 0.02], ids=["no-hazard", "hazard"])
    def test_uniforms_are_drawn_once_per_pass_and_share_unless_h_is_zero(self, workers, h):
        drawn, lock = [], threading.Lock()

        def record(generator, count):
            with lock:
                drawn.append(count)

        _spy_normals(workers.monkeypatch, lambda generator, count: None, record)
        claims = _spy_claims(workers.monkeypatch)
        params = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=h, horizon_T=1.0, w0=1.0)
        sweep(params, EXP, GRIDS[EXP], McConfig(n_paths=self.N_PATHS, seed=6))
        if h == 0.0:
            assert drawn == []      # no path can default
            return
        # the mean and the deviations: one draw a leaf, from the leaf's first
        # path, so no thread draws uniforms forward
        assert sorted(drawn) == sorted(hi - lo for _, lo, hi in claims)
        assert sum(drawn) == 2 * self.N_PATHS and max(drawn) <= LEAF

    def test_a_slow_share_does_not_hold_the_others_back(self, monkeypatch):
        # the caller holds its first leaf until the helper has read every
        # other leaf of the pass: the caller's normals were drawn with its
        # claim, so the helper claims and draws every later leaf and waits on
        # no thread
        _WorkerSpy(monkeypatch, max_workers=2, cpus=2)
        caller, by_caller = threading.current_thread(), []
        helper_read_seven = threading.Event()
        read_leaf = montecarlo._Policies.leaf

        def spy(law, z, offsets, tau):
            by_caller.append(threading.current_thread() is caller)
            if by_caller.count(False) == 7:
                helper_read_seven.set()
            if by_caller[-1] and by_caller.count(True) == 1:
                assert helper_read_seven.wait(10)
            return read_leaf(law, z, offsets, tau)

        monkeypatch.setattr(montecarlo._Policies, "leaf", spy)
        sweep(ACCEPT, EXP, [0.5, 1.0], McConfig(n_paths=8 * LEAF, seed=7))
        # two passes of eight leaves; the helper took all of the first pass
        # but the caller's leaf
        assert len(by_caller) == 16 and by_caller[:8].count(False) == 7

    @pytest.mark.parametrize("failures,expected", [
        ({5: KeyError("leaf")}, KeyError),
        ({2: KeyboardInterrupt()}, KeyboardInterrupt),
        ({3: KeyboardInterrupt(), 4: ValueError("leaf")}, KeyboardInterrupt),
    ], ids=["a-leaf-raises", "interrupt", "interrupt-before-an-error"])
    def test_a_failing_share_stops_the_sweep_and_leaves_no_thread(self, monkeypatch,
                                                                 failures, expected):
        # a leaf that raises stops every other thread at its next claim, so
        # each reads at most the leaf it holds; the interrupt is raised first
        _WorkerSpy(monkeypatch, max_workers=2, cpus=2)
        counts, at_raise = _fail_at_leaf(monkeypatch, failures)
        before = set(threading.enumerate())
        with pytest.raises(expected):
            sweep(ACCEPT, EXP, GRIDS[EXP], McConfig(n_paths=self.N_PATHS, seed=8))
        assert set(threading.enumerate()) == before
        first = at_raise[min(at_raise)]
        assert all(count <= first.get(thread, 0) + 1 for thread, count in counts.items())
        assert sum(counts.values()) <= min(at_raise) + 1

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("fail_at", [1, 3, 6])
    def test_a_failing_draw_is_raised_and_leaves_no_thread(self, workers, antithetic, fail_at):
        # a draw that fails, in any thread's claim, fails its thread like any
        # error of the thread
        calls, lock = [], threading.Lock()

        def before_draw(generator, count):
            with lock:
                calls.append(count)
                fail = len(calls) == fail_at
            if fail:
                raise MemoryError("draw")

        _spy_normals(workers.monkeypatch, before_draw)
        before = set(threading.enumerate())
        with pytest.raises(MemoryError, match="draw"):
            sweep(ACCEPT, EXP, GRIDS[EXP],
                  McConfig(n_paths=self.N_PATHS, seed=9, antithetic=antithetic))
        assert set(threading.enumerate()) == before


class TestLeafClaims:
    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("max_workers", [2, 3])
    def test_bits_do_not_depend_on_the_claim_order(self, monkeypatch, max_workers,
                                                   antithetic):
        # the caller stalls on every leaf it reads, so the helpers claim and
        # finish the leaves after it first
        _WorkerSpy(monkeypatch, max_workers, cpus=max_workers)
        caller, read_leaf, done = (threading.current_thread(), montecarlo._Policies.leaf,
                                   montecarlo._Pass.done)
        waiting = []

        def stall(law, z, offsets, tau):
            if threading.current_thread() is caller:
                time.sleep(0.01)
            return read_leaf(law, z, offsets, tau)

        def spy_done(walk, a, sums):
            done(walk, a, sums)
            waiting.append(len(walk.sums))      # sums that wait for an earlier leaf

        monkeypatch.setattr(montecarlo._Policies, "leaf", stall)
        monkeypatch.setattr(montecarlo._Pass, "done", spy_done)
        cfg = McConfig(n_paths=6 * LEAF + 10, seed=12, antithetic=antithetic)
        _assert_bitwise_sweep(ACCEPT, EXP, GRIDS[EXP], cfg)
        assert max(waiting) > 0

    def test_a_lone_policy_runs_on_the_callers_thread(self, monkeypatch):
        # a lone policy's estimate (verify's) stays on the caller's thread
        workers = _WorkerSpy(monkeypatch, max_workers=16, cpus=16)
        estimate(ACCEPT, 1.0, EXP, McConfig(n_paths=4 * LEAF, seed=1))
        assert workers.passes == [1, 1] and workers.threads == {threading.current_thread()}

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_a_pass_holds_few_sums_at_hundreds_of_leaves(self, monkeypatch, max_workers):
        # leaves of 256 paths, about 400 a pass: the pass folds the leaf sums
        # with one partial sum per level of the tree; one thread's sums never
        # wait
        monkeypatch.setattr(montecarlo, "_LEAF_PATHS", 256)
        workers = _WorkerSpy(monkeypatch, max_workers, cpus=2)
        done, walks, held, depths = montecarlo._Pass.done, set(), [], []

        def spy_done(walk, a, sums):
            done(walk, a, sums)
            with walk.lock:
                walks.add(walk)
                held.append(len(walk.sums))
                depth, fold = 0, walk.fold
                while fold is not None:
                    depth, fold = depth + 1, fold.gi_yieldfrom
                depths.append(depth)

        monkeypatch.setattr(montecarlo._Pass, "done", spy_done)
        n_paths = 400 * 256 + 6
        _assert_bitwise_sweep(ACCEPT, EXP, GRIDS[EXP], McConfig(n_paths=n_paths, seed=13))
        leaves = _leaf_count(n_paths)
        assert workers.passes == [workers.expect(n_paths)] * 2 and leaves >= 400
        assert len(held) == 2 * leaves and len(walks) == 2
        assert max(depths) <= math.ceil(math.log2(leaves)) + 1
        assert max_workers > 1 or max(held) == 0


class TestNonFiniteEstimates:
    def test_overflowing_sigma_squared_is_a_numerical_error(self):
        params = MarketParams(mu=0.08, sigma=1e200, r=0.02, h=0.02,
                              horizon_T=1.0, w0=1.0)
        with pytest.raises(NumericalError, match="sigma"):
            sweep(params, EXP, [0.0, 1.0], McConfig(n_paths=100, seed=0))

    def test_non_finite_sweep_point_is_a_numerical_error(self):
        # sigma^2 is finite, but the policy drift and the spread are not
        params = MarketParams(mu=0.08, sigma=1e154, r=0.02, h=0.02,
                              horizon_T=1.0, w0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="pi=3.0"):
                sweep(params, EXP, [0.0, 3.0], McConfig(n_paths=100, seed=0))

    @pytest.mark.parametrize("max_workers", [1, 2, 16])
    def test_a_policy_without_a_law_wins_over_a_lower_non_finite_policy(self, monkeypatch,
                                                                       max_workers):
        # linear loss has no law at pi >= 1: it is judged before anything is
        # drawn, so it is reported even where pi = 0.5 would not be finite
        _WorkerSpy(monkeypatch, max_workers, cpus=16)
        grid = [0.0, 0.5, 0.9, 1.0, 1.5]
        cfg = McConfig(n_paths=100, seed=0)
        wild = MarketParams(mu=0.08, sigma=1e154, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)
        with pytest.raises(ConfigError, match="pi < 1"):
            sweep(wild, LIN, grid, cfg)
        with pytest.raises(ConfigError, match="pi < 1"):
            sweep(ACCEPT, LIN, grid, cfg)

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("max_workers", [1, 2, 16])
    def test_a_policy_without_a_law_reduces_no_share(self, monkeypatch, max_workers,
                                                     antithetic):
        # sigma^2 overflows at every policy; linear loss has no law from pi = 1
        workers = _WorkerSpy(monkeypatch, max_workers, cpus=16)
        cfg = McConfig(n_paths=4 * LEAF, seed=0, antithetic=antithetic)
        wild = MarketParams(mu=0.08, sigma=1e200, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)
        with pytest.raises(NumericalError, match="sigma"):
            sweep(wild, EXP, GRIDS[EXP], cfg)
        with pytest.raises(ConfigError, match="pi < 1"):
            sweep(ACCEPT, LIN, np.linspace(0.0, 1.5, 16), cfg)
        assert workers.threads == set()

    def test_every_law_is_built_on_the_callers_thread_before_any_share(self, workers):
        # one law over the whole grid per thread, all before the first draw
        events, lock = [], threading.Lock()
        init = montecarlo._Policies.__init__

        def record(what, fn=None):
            def call(*args, **kwargs):
                with lock:
                    events.append((what, threading.current_thread()))
                return fn(*args, **kwargs) if fn else None
            return call

        workers.monkeypatch.setattr(montecarlo._Policies, "__init__", record("law", init))
        _spy_normals(workers.monkeypatch, record("draw"))
        n_paths = 3 * LEAF + 6
        sweep(ACCEPT, EXP, GRIDS[EXP], McConfig(n_paths=n_paths, seed=0))
        n_threads = workers.expect(n_paths)
        assert events[:n_threads] == [("law", threading.current_thread())] * n_threads
        assert {what for what, _ in events[n_threads:]} == {"draw"}

    def test_single_antithetic_pair_has_no_standard_error(self):
        # one pair average cannot give a ddof=1 spread: a configuration error
        with pytest.raises(ValueError, match="two pairs"):
            McConfig(n_paths=2, seed=0, antithetic=True)

    @pytest.mark.parametrize("max_workers", [1, 2, 16])
    def test_lowest_failing_policy_is_reported_whatever_the_split(self, monkeypatch,
                                                                  max_workers):
        # every pi > 0 is non-finite here, whichever threads claim the leaves
        workers = _WorkerSpy(monkeypatch, max_workers, cpus=16)
        params = MarketParams(mu=0.08, sigma=1e154, r=0.02, h=0.02,
                              horizon_T=1.0, w0=1.0)
        before = set(threading.enumerate())
        n_paths = 3 * LEAF + 6
        with pytest.raises(NumericalError, match=r"pi=0\.25 is"):
            sweep(params, EXP, GRIDS[EXP], McConfig(n_paths=n_paths, seed=0))
        assert set(workers.passes) == {workers.expect(n_paths)}
        # no worker outlives the sweep that raised
        assert set(threading.enumerate()) == before


class TestInThreads:
    def test_joins_every_task_and_raises_the_first_failure_in_task_order(self):
        finished = []
        third_failed = threading.Event()

        def first():              # the caller's task fails last
            assert third_failed.wait(10)
            raise ValueError("first")

        def second():
            finished.append(threading.current_thread())

        def third():
            try:
                raise KeyError("third")
            finally:
                third_failed.set()

        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="first"):
            _in_threads([first, second, third], threading.Event())
        assert len(finished) == 1 and finished[0] is not threading.current_thread()
        assert set(threading.enumerate()) == before

    def test_a_helper_failure_reaches_the_caller(self):
        def fail():
            raise KeyError("helper")

        with pytest.raises(KeyError, match="helper"):
            _in_threads([lambda: None, fail], threading.Event())

    def test_a_thread_that_cannot_start_is_raised_after_the_started_ones_join(
            self, monkeypatch):
        ran, real_start = [], threading.Thread.start

        def start(thread):
            if ran:                  # the second helper: no thread to spare
                raise RuntimeError("can't start new thread")
            real_start(thread)
            thread.join(10)          # its task is done before the caller goes on
            assert ran

        monkeypatch.setattr(threading.Thread, "start", start)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="can't start new thread"):
            _in_threads([lambda: ran.append(0), lambda: ran.append(1),
                         lambda: ran.append(2)], threading.Event())
        # the caller's own task never ran; the started helper was joined
        assert ran == [1] and set(threading.enumerate()) == before

    def test_an_interrupted_wait_stops_and_joins_every_task(self):
        # Ctrl-C while the caller waits for a helper's task: the helper is
        # told to stop and is joined before the interrupt is raised
        stop, main = threading.Event(), threading.main_thread().ident

        def helper():
            time.sleep(0.2)              # the caller waits by now
            signal.pthread_kill(main, signal.SIGINT)
            assert stop.wait(10)

        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            before = set(threading.enumerate())
            with pytest.raises(KeyboardInterrupt):
                _in_threads([lambda: None, helper], stop)
            assert stop.is_set() and set(threading.enumerate()) == before
        finally:
            signal.signal(signal.SIGINT, handler)


# --------------------------------------------------------------------------
# properties over random admissible markets (derandomized, see conftest.py)
# --------------------------------------------------------------------------

class TestMonteCarloProperties:
    @given(params=markets, loss=losses, antithetic=st.booleans(),
           n_half=st.integers(2, 3000), fracs=st.lists(st.floats(0.0, 1.0),
                                                       min_size=1, max_size=5))
    def test_sweep_is_bitwise_the_reference(self, params, loss, antithetic,
                                            n_half, fracs):
        grid = sorted({policy(loss, f) for f in fracs})
        cfg = McConfig(n_paths=2 * n_half + (not antithetic), seed=n_half,
                       antithetic=antithetic)
        _assert_bitwise_sweep(params, loss, grid, cfg)

    @given(params=markets, loss=losses, frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32))
    def test_estimate_within_five_standard_errors_of_oracle(self, params, loss,
                                                           frac, seed):
        pi = policy(loss, frac)
        est = estimate(params, pi, loss, McConfig(n_paths=20_000, seed=seed))
        exact = expected_log_utility_exact(params, pi, loss)
        # a zero-variance policy (pi = 0) differs only by rounding
        assert abs(est.mean - exact) <= 5.0 * est.std_error + 1e-12 * (1.0 + abs(exact))

    @given(params=interior_optimum_markets())
    def test_oracle_argmax_is_the_optimal_weight_when_interior(self, params):
        step = 1e-3
        grid = np.arange(0.0, 3.0 + 0.5 * step, step)
        pi_star = optimal_weight(params)
        values = expected_log_utility_exact(params, grid, EXP)
        assert abs(grid[int(np.argmax(values))] - pi_star) <= step + 1e-12
