import math
import sys
import threading
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

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.0, std_error=-1.0, n_paths=10, seed=0)


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

    def test_rejects_negative_hazard(self):
        with pytest.raises(ValueError):
            sample_default_time(-0.1, 0.5)


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
# summary that the shared path table replaced, kept here verbatim
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
    affinity, and records the threads that reduce policies."""

    def __init__(self, monkeypatch, max_workers, cpus):
        monkeypatch.setattr(montecarlo, "_MAX_WORKERS", max_workers)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        self.cap = min(max_workers, cpus)
        self.threads = set()
        reduce_policies = montecarlo._reduce_policies

        def spy(*args):
            self.threads.add(threading.current_thread())
            return reduce_policies(*args)

        monkeypatch.setattr(montecarlo, "_reduce_policies", spy)


# (_MAX_WORKERS, CPUs): one CPU; two threads; more threads than the seven
# policies of a GRIDS sweep, which then runs one thread per policy
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
            workers.threads.clear()
            _assert_bitwise_sweep(params, loss, GRIDS[loss], cfg)
            assert len(workers.threads) == min(workers.cap, len(GRIDS[loss]))

    def test_many_workers_switching_often_stay_bitwise(self, monkeypatch):
        # more threads than cores, switching every microsecond: a lost or
        # misplaced write to a grid slot would break the equality
        workers = _WorkerSpy(monkeypatch, max_workers=32, cpus=32)
        grid = np.linspace(0.0, 3.0, 25).tolist()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed, (n_paths, antithetic) in enumerate([(7, False), (UFUNC_BUFFER, True),
                                                          (100_001, False)]):
                workers.threads.clear()
                cfg = McConfig(n_paths=n_paths, seed=seed, antithetic=antithetic)
                _assert_bitwise_sweep(ACCEPT, EXP, grid, cfg)
                assert len(workers.threads) == len(grid)
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

    def test_default_times_are_drawn_on_the_callers_thread(self, monkeypatch):
        # tracers wrap the public functions with one span stack
        threads = []
        draw = montecarlo.sample_default_time

        def spy(h, u):
            threads.append(threading.current_thread())
            return draw(h, u)

        monkeypatch.setattr(montecarlo, "sample_default_time", spy)
        _WorkerSpy(monkeypatch, max_workers=2, cpus=2)
        sweep(ACCEPT, EXP, GRIDS[EXP], McConfig(n_paths=3 * LEAF + 5, seed=4))
        assert len(threads) == 4 and set(threads) == {threading.current_thread()}

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_peak_memory_is_the_normals_and_a_few_leaves(self, monkeypatch, max_workers,
                                                         antithetic):
        # the resident normals (8 bytes a path), and per worker a leaf buffer
        # and a scratch for one leaf's defaulted paths; a whole-array
        # temporary would add 8 bytes a path
        _WorkerSpy(monkeypatch, max_workers, cpus=2)
        n_paths = 400_000
        cfg = McConfig(n_paths=n_paths, seed=3, antithetic=antithetic)
        tracemalloc.start()
        try:
            sweep(ACCEPT, EXP, GRIDS[EXP], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_paths * 1.25 + 4 * 2 ** 20


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
    def test_a_policy_without_a_law_fails_after_the_policies_below_it(self, monkeypatch,
                                                                     max_workers):
        # linear loss has no law at pi >= 1; a lower non-finite policy is
        # still the one reported, and otherwise the first pi >= 1 is
        _WorkerSpy(monkeypatch, max_workers, cpus=16)
        grid = [0.0, 0.5, 0.9, 1.0, 1.5]
        cfg = McConfig(n_paths=100, seed=0)
        wild = MarketParams(mu=0.08, sigma=1e154, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)
        with pytest.raises(NumericalError, match=r"pi=0\.5 is"):
            sweep(wild, LIN, grid, cfg)
        with pytest.raises(ConfigError, match="pi < 1"):
            sweep(ACCEPT, LIN, grid, cfg)

    def test_single_antithetic_pair_has_no_standard_error(self):
        # one pair average cannot give a ddof=1 spread: a configuration error
        with pytest.raises(ValueError, match="two pairs"):
            McConfig(n_paths=2, seed=0, antithetic=True)

    @pytest.mark.parametrize("max_workers", [1, 2, 16])
    def test_lowest_failing_policy_is_reported_whatever_the_split(self, monkeypatch,
                                                                  max_workers):
        # every pi > 0 is non-finite here: with two workers each share fails,
        # with seven the caller's (pi = 0) succeeds and every helper fails
        workers = _WorkerSpy(monkeypatch, max_workers, cpus=16)
        params = MarketParams(mu=0.08, sigma=1e154, r=0.02, h=0.02,
                              horizon_T=1.0, w0=1.0)
        before = set(threading.enumerate())
        with pytest.raises(NumericalError, match=r"pi=0\.25 is"):
            sweep(params, EXP, GRIDS[EXP], McConfig(n_paths=100, seed=0))
        assert len(workers.threads) == min(max_workers, len(GRIDS[EXP]))
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
            _in_threads([first, second, third])
        assert len(finished) == 1 and finished[0] is not threading.current_thread()
        assert set(threading.enumerate()) == before

    def test_a_helper_failure_reaches_the_caller(self):
        def fail():
            raise KeyError("helper")

        with pytest.raises(KeyError, match="helper"):
            _in_threads([lambda: None, fail])


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
