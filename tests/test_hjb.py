import dataclasses
import math
import mmap
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimehjb import hjb
from regimehjb.closedform import f_closed_form, optimal_weight
from regimehjb.hjb import (CflViolationError, GridSpec, NumericalError,
                           ValueSurface, post_hamiltonian, pre_hamiltonian,
                           solve_after, solve_pre, solve_system,
                           validate_grid_for)
from regimehjb.model import (ConfigError, DefaultLossModel, MarketParams,
                             RegimeControlProblem, merton_as_generic)

ACCEPT = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)
NODES = np.linspace(0.0, 3.0, 61)


def small_grid(n_x=101, n_t=200):
    return GridSpec(x_min=-4.0, x_max=4.0, n_x=n_x, n_t=n_t, control_nodes=NODES)


def merton_problem(params=ACCEPT, **kw):
    return merton_as_generic(params, **kw)


class TestGridSpec:
    def test_spacing(self):
        g = small_grid()
        assert g.dx == pytest.approx(0.08)
        assert g.dt(1.0) == pytest.approx(0.005)
        assert g.x_nodes[0] == -4.0 and g.x_nodes[-1] == 4.0

    @pytest.mark.parametrize("kw", [
        dict(x_min=1.0, x_max=1.0),
        dict(n_x=2),
        dict(n_x=10 ** 400),                # n_x - 1 is beyond a float
        dict(n_t=0),
        dict(control_nodes=np.array([])),
        dict(control_nodes=np.array([0.5, 0.5])),
        dict(control_nodes=np.array([[0.1, 0.2]])),
        dict(x_min=-np.inf),
        dict(x_max=np.inf),
        dict(x_min=-1e308, x_max=1e308),    # dx overflows
        dict(control_nodes=np.array([np.nan])),
        dict(control_nodes=np.array([0.0, np.inf])),
    ])
    def test_rejects_invalid(self, kw):
        base = dict(x_min=-4.0, x_max=4.0, n_x=101, n_t=200, control_nodes=NODES)
        with pytest.raises(ValueError):
            GridSpec(**{**base, **kw})

    @pytest.mark.parametrize("kw", [dict(n_x=41.0), dict(n_t=200.0), dict(n_x=True),
                                    dict(n_t=True), dict(n_t="200")])
    def test_rejects_counts_that_are_not_integers(self, kw):
        base = dict(x_min=-4.0, x_max=4.0, n_x=41, n_t=200, control_nodes=NODES)
        with pytest.raises(ValueError, match="must be integers"):
            GridSpec(**{**base, **kw})
        grid = GridSpec(**{**base, "n_x": np.int64(41), "n_t": np.int32(200)})
        assert grid.x_nodes.size == 41 and grid.times(1.0).size == 201

    def test_freezes_a_copy_not_the_callers_nodes(self):
        nodes = np.linspace(0.0, 3.0, 61)
        g = GridSpec(x_min=-4.0, x_max=4.0, n_x=101, n_t=200, control_nodes=nodes)
        nodes[0] = 0.5    # still writeable
        assert g.control_nodes[0] == 0.0
        with pytest.raises(ValueError):
            g.control_nodes[0] = 0.5

    def test_interior_mask(self):
        g = small_grid()
        mask = g.interior_mask(4.5, 0.5)
        x = g.x_nodes[mask]
        assert x.min() >= 0.5 and x.max() <= 3.5


class TestCfl:
    def test_violation_names_minimal_n_t(self):
        prob = merton_problem()

        def grid(n_t):  # dx = 0.01; the one control 3 gives max vol^2 = 0.36
            return GridSpec(x_min=-4.0, x_max=4.0, n_x=801, n_t=n_t,
                            control_nodes=np.array([3.0]))

        with pytest.raises(CflViolationError) as exc:
            solve_pre(prob, np.zeros((101, 801)), grid(100))
        n_min = exc.value.min_n_t
        # T * (|drift|/dx + vol^2/dx^2 + h) = 0.02/0.01 + 0.36/0.01^2 + 0.02 = 3602.02
        assert n_min == 3603
        assert str(n_min) in str(exc.value) and "at t=1:" in str(exc.value)
        # the step check passes the suggested n_t and rejects one step fewer
        solve_pre(prob, np.zeros((n_min + 1, 801)), grid(n_min))
        with pytest.raises(CflViolationError):
            solve_pre(prob, np.zeros((n_min, 801)), grid(n_min - 1))

    def test_post_violation_is_labelled_post(self):
        # the regime is told by the absence of v_after; dx = 0.01 and a post
        # vol of 0.6 need n_t >= 0.36 / dx^2
        prob = dataclasses.replace(merton_problem(),
                                   vol_post=lambda t, x, u: np.full_like(x, 0.6))

        def grid(n_t):
            return GridSpec(x_min=-4.0, x_max=4.0, n_x=801, n_t=n_t,
                            control_nodes=np.array([3.0]))

        with pytest.raises(CflViolationError, match="for the post regime at t=1:") as exc:
            solve_after(prob, grid(100))
        n_min = exc.value.min_n_t
        assert n_min == 3602 and f"need n_t >= {n_min}" in str(exc.value)
        assert np.isfinite(solve_after(prob, grid(n_min))).all()
        with pytest.raises(CflViolationError, match="post regime"):
            solve_after(prob, grid(n_min - 1))

    def test_drift_without_diffusion_is_bounded_too(self):
        # post drift 5 and no vol: 5 dt / dx = 2.5 at n_t = 100, where a bound
        # on the diffusion alone let the march return max|v| = 5e54
        prob = dataclasses.replace(merton_problem(), drift_post=lambda t, x, u: 5.0 + 0.0 * u,
                                   vol_post=lambda t, x, u: 0.0, terminal_cost=np.sin)

        def grid(n_t):
            return GridSpec(x_min=-4.0, x_max=4.0, n_x=401, n_t=n_t, control_nodes=NODES)

        with pytest.raises(CflViolationError, match="for the post regime at t=1:") as exc:
            solve_after(prob, grid(100))
        n_min = exc.value.min_n_t
        assert n_min == math.ceil(5.0 / grid(100).dx) and f"need n_t >= {n_min}" in str(exc.value)
        # at Courant number 1 the upwind step transports exactly, v(0, x) =
        # sin(x + 5), wherever the data does not come from beyond x_max
        x, v = grid(n_min).x_nodes, solve_after(prob, grid(n_min))
        np.testing.assert_allclose(v[0, x <= -1.0], np.sin(x[x <= -1.0] + 5.0), atol=1e-12)
        with pytest.raises(CflViolationError):
            solve_after(prob, grid(n_min - 1))

    @pytest.mark.filterwarnings("ignore:hazard")    # an accuracy warning, not this bound
    @given(drift=st.floats(-5.0, 5.0), vol=st.floats(0.0, 1.0), hazard=st.floats(0.0, 20.0),
           n_x=st.integers(3, 30), post=st.booleans())
    @settings(max_examples=40)
    def test_named_n_t_is_the_least_that_passes(self, drift, vol, hazard, n_x, post):
        # dt (|drift|/dx + vol^2/dx^2 + hazard) <= 1: the named n_t solves and
        # one step fewer raises
        coeffs = {"drift_post" if post else "drift_pre": lambda t, x, u: drift + 0.0 * u,
                  "vol_post" if post else "vol_pre": lambda t, x, u: vol + 0.0 * u}
        prob = dataclasses.replace(merton_problem(), hazard=hazard, terminal_cost=np.sin,
                                   jump_map=lambda t, x, u: x - 0.1 * u, **coeffs)

        def solve(n_t):
            grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=n_x, n_t=n_t,
                            control_nodes=np.array([0.0, 1.0]))
            if post:
                return solve_after(prob, grid)
            return solve_pre(prob, np.zeros((n_t + 1, n_x)), grid)[0]

        dx = 2.0 / (n_x - 1)
        rate = abs(drift) / dx + vol * vol / dx ** 2 + (0.0 if post else hazard)
        n_min = max(1, math.ceil(rate))
        if n_min > 1:
            with pytest.raises(CflViolationError) as exc:
                solve(n_min - 1)
            assert exc.value.min_n_t == n_min
        assert np.isfinite(solve(n_min)).all()

    def test_post_regime_without_diffusion_is_unconstrained(self):
        prob = merton_problem()
        grid = small_grid(n_x=801, n_t=10)  # would badly violate the pre bound
        assert np.isfinite(solve_after(prob, grid)).all()

    def test_validate_grid_for_evaluates_no_coefficient(self):
        def forbidden(t, x, u):
            raise AssertionError("a coefficient was evaluated")

        prob = dataclasses.replace(merton_problem(), vol_pre=forbidden, vol_post=forbidden)
        validate_grid_for(prob, small_grid())

    def test_vol_breaking_the_bound_only_at_t0_solves(self):
        # no step evaluates a coefficient at t = 0, so no step sees the bad vol
        base = merton_problem()
        prob = dataclasses.replace(
            base, vol_pre=lambda t, x, u: u * ACCEPT.sigma * (50.0 if t == 0.0 else 1.0))
        surf, ref = solve_system(prob, small_grid()), solve_system(base, small_grid())
        np.testing.assert_array_equal(surf.v_pre, ref.v_pre)
        np.testing.assert_array_equal(surf.policy, ref.policy)

    def test_control_nodes_outside_bounds_rejected(self):
        prob = merton_problem(control_bounds=(0.0, 1.0))
        with pytest.raises(ConfigError, match="outside the problem's control_bounds"):
            validate_grid_for(prob, small_grid())


class TestSolveAfter:
    def test_merton_post_value_is_exact_transport(self):
        prob = merton_problem()
        grid = small_grid()
        v = solve_after(prob, grid)
        t = grid.times(prob.horizon)
        expected = -grid.x_nodes[None, :] - ACCEPT.r * (ACCEPT.horizon_T - t)[:, None]
        np.testing.assert_allclose(v, expected, rtol=0, atol=1e-12)

    def test_zero_data_gives_zero_surface(self):
        prob = dataclasses.replace(merton_problem(), terminal_cost=lambda x: 0.0 * x)
        v = solve_after(prob, small_grid())
        np.testing.assert_array_equal(v, 0.0)

    def test_zero_rate_freezes_terminal_row(self):
        p = MarketParams(mu=0.08, sigma=0.2, r=0.0, h=0.02, horizon_T=1.0, w0=1.0)
        v = solve_after(merton_problem(p), small_grid())
        expected = np.broadcast_to(-small_grid().x_nodes, v.shape)
        np.testing.assert_allclose(v, expected, rtol=0, atol=1e-13)


class TestSolvePre:
    def test_no_hazard_reduces_to_classic_merton(self):
        # with h = 0 the drift rate is constant in time, the solution is
        # affine in x and the explicit step is exact up to rounding
        p = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=1.0)
        prob = merton_problem(p)
        grid = small_grid()
        v_after = solve_after(prob, grid)
        v, policy = solve_pre(prob, v_after, grid)
        t = grid.times(prob.horizon)
        rate = p.r + (p.mu - p.r) ** 2 / (2 * p.sigma ** 2)
        expected = -grid.x_nodes[None, :] - rate * (p.horizon_T - t)[:, None]
        np.testing.assert_allclose(v, expected, rtol=0, atol=1e-11)
        assert np.all(policy[:-1] == 1.5)

    def test_terminal_row_is_terminal_cost(self):
        prob = merton_problem()
        grid = small_grid()
        v, _ = solve_pre(prob, solve_after(prob, grid), grid)
        np.testing.assert_array_equal(v[-1], -grid.x_nodes)

    def test_interior_policy_hits_optimal_weight(self):
        prob = merton_problem()
        grid = small_grid()
        v, policy = solve_pre(prob, solve_after(prob, grid), grid)
        pi_star = optimal_weight(ACCEPT)
        mask = grid.interior_mask(4.5, 0.5)
        spacing = NODES[1] - NODES[0]
        assert np.max(np.abs(policy[0, mask] - pi_star)) <= spacing + 1e-12

    def test_interior_value_tracks_closed_form(self):
        prob = merton_problem()
        grid = small_grid()
        v, _ = solve_pre(prob, solve_after(prob, grid), grid)
        mask = grid.interior_mask(4.5, 0.5)
        f0 = f_closed_form(ACCEPT, 0.0)
        dev = np.max(np.abs(-v[0, mask] - grid.x_nodes[mask] - f0))
        assert dev <= 1e-5  # explicit-Euler floor for this dt

    def test_policy_rows_are_argmin_certificates(self):
        prob = merton_problem()
        grid = small_grid(n_x=41, n_t=150)
        v_after = solve_after(prob, grid)
        v, policy = solve_pre(prob, v_after, grid)
        times = grid.times(prob.horizon)
        for i in (0, 70, 149):
            ham = pre_hamiltonian(prob, grid, times[i + 1], v[i + 1], v_after[i + 1])
            idx = np.searchsorted(grid.control_nodes, policy[i])
            chosen = ham[np.arange(grid.n_x), idx]
            assert np.all(chosen <= ham.min(axis=1) + 1e-15)

    def test_rejects_mismatched_after_surface(self):
        prob = merton_problem()
        grid = small_grid()
        with pytest.raises(ValueError):
            solve_pre(prob, np.zeros((3, 3)), grid)

    def test_non_finite_jump_target_raises(self):
        prob = dataclasses.replace(
            merton_problem(),
            jump_map=lambda t, x, u: np.where(u > 2.5, np.nan, x - u))
        grid = small_grid()
        with pytest.raises(NumericalError):
            solve_pre(prob, solve_after(prob, grid), grid)

    def test_large_hazard_step_warns(self):
        p = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=30.0, horizon_T=1.0, w0=1.0)
        prob = merton_problem(p)
        grid = small_grid()
        with pytest.warns(RuntimeWarning, match="hazard"):
            solve_pre(prob, solve_after(prob, grid), grid)


class TestSolveSystem:
    def test_packages_surface(self):
        surf = solve_system(merton_problem(), small_grid())
        assert isinstance(surf, ValueSurface)
        assert surf.v_pre.shape == (201, 101)
        np.testing.assert_array_equal(surf.v_pre[-1], surf.v_after[-1])
        assert np.isin(surf.policy, NODES).all()
        with pytest.raises(ValueError):
            surf.v_pre[0, 0] = 1.0  # read-only

    def test_decoupled_at_zero_hazard_bitwise(self):
        p0 = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=1.0)
        prob = merton_problem(p0)
        garbage = dataclasses.replace(prob, drift_post=lambda t, x, u: np.sin(3 * x) + 5.0)
        grid = small_grid()
        s1 = solve_system(prob, grid)
        s2 = solve_system(garbage, grid)
        assert np.array_equal(s1.v_pre, s2.v_pre)
        assert np.array_equal(s1.policy, s2.policy)
        assert not np.array_equal(s1.v_after, s2.v_after)

    def test_affine_in_x_interior(self):
        surf = solve_system(merton_problem(), small_grid())
        grid = surf.grid
        mask = grid.interior_mask(4.5, 0.5)
        g = surf.v_pre[:, mask] + grid.x_nodes[None, mask]
        defect = np.max(g.max(axis=1) - g.min(axis=1))
        assert defect <= 1e-9

    def test_monotone_decreasing_values_preserved(self):
        # non-affine, strictly decreasing terminal data: the monotone scheme
        # must keep every time row non-increasing in x
        prob = dataclasses.replace(merton_problem(),
                                   terminal_cost=lambda x: -x - 0.3 * np.tanh(x))
        surf = solve_system(prob, small_grid())
        diffs = np.diff(surf.v_pre, axis=1)
        assert np.all(diffs <= 1e-12)

    def test_discrete_residual_of_closed_form_injection(self):
        # inject v(t,x) = -x - f(t) into the discrete operator; the residual
        # (v[i] - v[i+1])/dt + min_u H must vanish first order in dt
        prob = merton_problem()
        residual = {}
        for n_t in (200, 400):
            grid = small_grid(n_t=n_t)
            v_after = solve_after(prob, grid)
            times = grid.times(prob.horizon)
            x = grid.x_nodes
            dt = grid.dt(prob.horizon)
            mask = grid.interior_mask(4.5, 0.5)
            worst = 0.0
            for i in (0, n_t // 2, n_t - 1):
                v_next = -x - f_closed_form(ACCEPT, times[i + 1])
                v_here = -x - f_closed_form(ACCEPT, times[i])
                ham = pre_hamiltonian(prob, grid, times[i + 1], v_next, v_after[i + 1])
                res = (v_here - v_next) / dt - ham.min(axis=1)
                worst = max(worst, float(np.max(np.abs(res[mask]))))
            residual[n_t] = worst
        assert residual[200] <= 1e-5
        assert residual[400] <= residual[200] / 1.5  # ~halves with dt


class TestStepGuards:
    def test_vol_spike_between_sampled_times_violates_cfl(self):
        # a narrow vol spike at t = 0.25, seen only by the steps near it
        base = merton_problem()

        def spiky(t, x, u):
            return u * ACCEPT.sigma * (1.0 + 20.0 * np.exp(-((t - 0.25) / 0.01) ** 2))

        prob = dataclasses.replace(base, vol_pre=spiky)
        grid = small_grid()  # dt = 0.005, dx = 0.08; a step lands on t = 0.25
        with pytest.raises(CflViolationError) as exc:
            solve_system(prob, grid)
        # stepping backward from T, the first step time whose own
        # coefficients break the bound names the n_t
        for t in grid.times(prob.horizon)[::-1]:
            sq = float(np.max(spiky(t, 0.0, NODES) ** 2))
            b = float(np.max(np.abs(prob.drift_pre(t, 0.0, NODES))))
            need = prob.horizon * (b / grid.dx + sq / grid.dx ** 2 + prob.hazard)
            if need > grid.n_t:
                break
        assert 0.25 < t < 0.3
        expected = int(np.ceil(need))
        assert exc.value.min_n_t == expected
        assert f"t={t:.6g}" in str(exc.value) and str(expected) in str(exc.value)

    @pytest.mark.parametrize("field, bad", [
        ("drift_pre", lambda t, x, u: np.where(t < 0.5, np.nan, 0.02 + 0.0 * u)),
        ("vol_pre", lambda t, x, u: np.where(t < 0.5, np.nan, 0.2 * u)),
        ("running_cost", lambda t, x, u: np.inf if t < 0.5 else 0.0),
        ("drift_post", lambda t, x, u: np.where(t < 0.5, np.inf, 0.02)),
    ])
    def test_non_finite_coefficient_raises(self, field, bad):
        prob = dataclasses.replace(merton_problem(), **{field: bad})
        with pytest.raises(NumericalError):
            solve_system(prob, small_grid())

    def test_coefficient_that_does_not_broadcast_to_the_mesh_raises(self):
        # (2, 1, 1) broadcasts with the mesh, but to a shape of its own
        prob = dataclasses.replace(merton_problem(),
                                   drift_pre=lambda t, x, u: np.full((2, 1, 1), 0.02))
        with pytest.raises(ValueError, match=r"^coefficient of shape \(2, 1, 1\) does not "
                                             r"broadcast to the \(state, control\) mesh"):
            solve_system(prob, small_grid())

    def test_overflowing_post_surface_is_labelled_post(self):
        prob = dataclasses.replace(merton_problem(),
                                   running_cost=lambda t, x, u: np.full_like(x, 1e308))
        with pytest.raises(NumericalError, match="^the post surface is not finite at t="):
            solve_after(prob, small_grid())

    def test_non_finite_after_surface_raises(self):
        prob = merton_problem()
        grid = small_grid()
        v_after = solve_after(prob, grid).copy()
        v_after[100, 50] = np.inf
        with pytest.raises(NumericalError, match="v_after is not finite"):
            solve_pre(prob, v_after, grid)

    def test_guards_never_touch_the_coupling_at_zero_hazard(self):
        p0 = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=1.0)

        def forbidden(t, x, u):
            raise AssertionError("jump_map evaluated at zero hazard")

        prob = dataclasses.replace(merton_problem(p0), jump_map=forbidden)
        surf = solve_system(prob, small_grid())
        assert np.isfinite(surf.v_pre).all()


# --------------------------------------------------------------------------
# bitwise equivalence with a straightforward reference solver: coefficients
# broadcast to the full (state, control) mesh every step, np.interp for the
# jump coupling
# --------------------------------------------------------------------------

def _ref_coeff(fn, t, x_col, u_row, shape):
    return np.broadcast_to(np.asarray(fn(t, x_col, u_row), dtype=float), shape)


def _ref_hamiltonian(problem, grid, t, v_row, drift_fn, vol_fn, v_after_row=None):
    x = grid.x_nodes
    x_col, u_row = x[:, None], grid.control_nodes[None, :]
    shape = (grid.n_x, grid.control_nodes.size)
    drift = _ref_coeff(drift_fn, t, x_col, u_row, shape)
    vol = _ref_coeff(vol_fn, t, x_col, u_row, shape)
    cost = _ref_coeff(problem.running_cost, t, x_col, u_row, shape)
    dx = grid.dx
    d_fwd, d_bwd = np.empty_like(v_row), np.empty_like(v_row)
    d_fwd[:-1] = (v_row[1:] - v_row[:-1]) / dx
    d_fwd[-1] = (v_row[-1] - v_row[-2]) / dx
    d_bwd[1:] = (v_row[1:] - v_row[:-1]) / dx
    d_bwd[0] = (v_row[1] - v_row[0]) / dx
    d2 = np.zeros_like(v_row)
    d2[1:-1] = (v_row[2:] - 2.0 * v_row[1:-1] + v_row[:-2]) / (dx * dx)
    dv = np.where(drift >= 0.0, d_fwd[:, None], d_bwd[:, None])
    ham = drift * dv + 0.5 * vol * vol * d2[:, None] + cost
    if v_after_row is not None and problem.hazard > 0.0:
        targets = _ref_coeff(problem.jump_map, t, x_col, u_row, shape)
        coupled = np.interp(targets.ravel(), x, v_after_row).reshape(shape)
        ham = ham + problem.hazard * (coupled - v_row[:, None])
    return ham


def _ref_solve(problem, grid):
    dt = grid.dt(problem.horizon)
    times = grid.times(problem.horizon)
    nodes = grid.control_nodes
    terminal = np.broadcast_to(np.asarray(problem.terminal_cost(grid.x_nodes), dtype=float),
                               (grid.n_x,))
    v_after = np.empty((grid.n_t + 1, grid.n_x))
    v_after[-1] = terminal
    for i in range(grid.n_t - 1, -1, -1):
        ham = _ref_hamiltonian(problem, grid, times[i + 1], v_after[i + 1],
                               problem.drift_post, problem.vol_post)
        v_after[i] = v_after[i + 1] + dt * ham.min(axis=1)
    v_pre = np.empty_like(v_after)
    policy = np.empty_like(v_after)
    v_pre[-1] = terminal
    ham = _ref_hamiltonian(problem, grid, times[-1], v_pre[-1], problem.drift_pre,
                           problem.vol_pre, v_after[-1])
    policy[-1] = nodes[np.argmin(ham, axis=1)]
    for i in range(grid.n_t - 1, -1, -1):
        ham = _ref_hamiltonian(problem, grid, times[i + 1], v_pre[i + 1], problem.drift_pre,
                               problem.vol_pre, v_after[i + 1])
        v_pre[i] = v_pre[i + 1] + dt * ham.min(axis=1)
        policy[i] = nodes[np.argmin(ham, axis=1)]
    return v_pre, v_after, policy


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def generic_problem(jump_map):
    """Time-dependent pre vol, a controlled post market, x- and u-dependent cost."""
    def drift_pre(t, x, u):
        s = 0.2 + 0.1 * t
        return 0.02 + 0.01 * np.sin(x) + u * 0.06 - 0.5 * u * u * s * s

    return RegimeControlProblem(
        drift_pre=drift_pre,
        vol_pre=lambda t, x, u: u * (0.2 + 0.1 * t),
        drift_post=lambda t, x, u: 0.02 + u * 0.03 - 0.5 * u * u * 0.0625,
        vol_post=lambda t, x, u: u * 0.25,
        hazard=0.7,
        jump_map=jump_map,
        running_cost=lambda t, x, u: 0.01 * u * u * np.cos(x),
        terminal_cost=lambda x: -x - 0.3 * np.tanh(x),
        control_bounds=(-1.0, 2.0),
        horizon=1.0,
    )


EQUIV_GRID = GridSpec(x_min=-1.0, x_max=1.0, n_x=41, n_t=160,
                      control_nodes=np.linspace(-1.0, 2.0, 13))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("jump_map", [
        # u = 0 lands on every node (both edges included), u < 0 clamps
        # above x_max, u > 0 below x_min
        lambda t, x, u: x - u,
        # targets move with t: the stencil is rebuilt every step
        lambda t, x, u: x - u * (1.0 + t),
    ], ids=["static-targets", "moving-targets"])
    def test_solve_system_is_bitwise_the_reference(self, jump_map):
        prob = generic_problem(jump_map)
        targets = jump_map(0.0, EQUIV_GRID.x_nodes[:, None], EQUIV_GRID.control_nodes[None, :])
        x = EQUIV_GRID.x_nodes
        assert (targets < x[0]).any() and (targets > x[-1]).any()
        assert np.isin(targets, x).sum() >= x.size
        surf = solve_system(prob, EQUIV_GRID)
        v_pre, v_after, policy = _ref_solve(prob, EQUIV_GRID)
        np.testing.assert_array_equal(_bits(surf.v_after), _bits(v_after))
        np.testing.assert_array_equal(_bits(surf.v_pre), _bits(v_pre))
        np.testing.assert_array_equal(_bits(surf.policy), _bits(policy))
        assert len(np.unique(policy[0])) > 1  # the control choice is not trivial

    @pytest.mark.parametrize("jump_map", [
        lambda t, x, u: 0.25,
        lambda t, x, u: 0.5 - u,
    ], ids=["one-target", "control-only-targets"])
    def test_state_independent_targets_are_bitwise_the_reference(self, jump_map):
        prob = generic_problem(jump_map)
        surf = solve_system(prob, EQUIV_GRID)
        v_pre, _, policy = _ref_solve(prob, EQUIV_GRID)
        np.testing.assert_array_equal(_bits(surf.v_pre), _bits(v_pre))
        np.testing.assert_array_equal(_bits(surf.policy), _bits(policy))

    def test_public_hamiltonians_are_bitwise_the_reference(self):
        prob = generic_problem(lambda t, x, u: x - u)
        rng = np.random.default_rng(7)
        v_row, v_after_row = rng.normal(size=(2, EQUIV_GRID.n_x))
        shape = (EQUIV_GRID.n_x, EQUIV_GRID.control_nodes.size)
        pre = pre_hamiltonian(prob, EQUIV_GRID, 0.3, v_row, v_after_row)
        post = post_hamiltonian(prob, EQUIV_GRID, 0.3, v_row)
        assert pre.shape == post.shape == shape
        np.testing.assert_array_equal(
            _bits(pre), _bits(_ref_hamiltonian(prob, EQUIV_GRID, 0.3, v_row, prob.drift_pre,
                                               prob.vol_pre, v_after_row)))
        np.testing.assert_array_equal(
            _bits(post), _bits(_ref_hamiltonian(prob, EQUIV_GRID, 0.3, v_row,
                                                prob.drift_post, prob.vol_post)))

    def test_merton_post_regime_keeps_the_full_mesh_result(self):
        # the post regime's coefficients are scalars; the public result is
        # still one column per control
        prob = merton_problem()
        grid = small_grid(n_x=41, n_t=150)
        ham = post_hamiltonian(prob, grid, 0.5, -grid.x_nodes)
        assert ham.shape == (41, NODES.size)
        np.testing.assert_array_equal(ham, np.broadcast_to(ham[:, :1], ham.shape))
        np.testing.assert_allclose(ham, -ACCEPT.r, rtol=1e-12)


# --------------------------------------------------------------------------
# method of manufactured solutions: curved exact surfaces, with running
# costs chosen so that they solve the discrete-control HJB pair exactly
# --------------------------------------------------------------------------

MMS_A, MMS_HAZARD, MMS_U_STAR = 0.3, 0.5, 0.5


def _mms_drift(t, x, u):
    return 0.05 + 0.1 * u


def _mms_vol(t, x, u):
    return 0.2 + 0.2 * u


def _mms_jump(t, x, u):
    return x - 0.2 * u


def _e(t):
    """Amplitude of the curved part of both exact surfaces, a e^{-(T-t)}."""
    return MMS_A * np.exp(t - 1.0)


def _mms_after(t, x):
    return -x - 0.04 * (1.0 - t) + _e(t) * np.cos(x)


def _mms_pre(t, x):
    return -x - 0.1 * (1.0 - t) + _e(t) * np.sin(x)


def _mms_cost(v_t, v_x, v_xx, coupling):
    """(u - u*)^2 - v_t - [b v_x + vol^2 v_xx / 2 + coupling]: min_u H = -v_t at u*."""
    def cost(t, x, u):
        generator = (_mms_drift(t, x, u) * v_x(t, x) + 0.5 * _mms_vol(t, x, u) ** 2
                     * v_xx(t, x) + coupling(t, x, u))
        return (u - MMS_U_STAR) ** 2 - v_t(t, x) - generator
    return cost


def _mms_problem(cost, terminal_cost):
    return RegimeControlProblem(
        drift_pre=_mms_drift, vol_pre=_mms_vol, drift_post=_mms_drift, vol_post=_mms_vol,
        hazard=MMS_HAZARD, jump_map=_mms_jump, running_cost=cost,
        terminal_cost=terminal_cost, control_bounds=(0.0, 1.0), horizon=1.0)


# one problem has one running cost, so the post regime is solved as the post
# regime of a problem of its own
MMS_AFTER = _mms_problem(
    _mms_cost(lambda t, x: 0.04 + _e(t) * np.cos(x), lambda t, x: -1.0 - _e(t) * np.sin(x),
              lambda t, x: -_e(t) * np.cos(x), lambda t, x, u: 0.0),
    lambda x: _mms_after(1.0, x))
MMS_PRE = _mms_problem(
    _mms_cost(lambda t, x: 0.1 + _e(t) * np.sin(x), lambda t, x: -1.0 + _e(t) * np.cos(x),
              lambda t, x: -_e(t) * np.sin(x),
              lambda t, x, u: MMS_HAZARD * (_mms_after(t, _mms_jump(t, x, u)) - _mms_pre(t, x))),
    lambda x: _mms_pre(1.0, x))


class TestManufacturedSolution:
    def test_curved_surfaces_converge_at_first_order_with_the_exact_policy(self):
        # dx halves and dt quarters per refinement. The upwind difference is
        # first order in dx, so the error ratio tends to 2 from above (2.2 at
        # a fourth grid, 321x6400); these grids give 2.4-2.7. A second
        # difference divided by dx, not dx^2, gives ratios below 1, and a
        # jump interpolation without its slope gives 1.1 and 2.0 on the pre
        # surface and picks u* on only about 71 % of the nodes.
        errors = []
        for n_x, n_t in ((41, 100), (81, 400), (161, 1600)):
            grid = GridSpec(x_min=-2.0, x_max=2.0, n_x=n_x, n_t=n_t,
                            control_nodes=np.linspace(0.0, 1.0, 11))
            v_after = solve_after(MMS_AFTER, grid)
            v_pre, policy = solve_pre(MMS_PRE, v_after, grid)
            x = grid.x_nodes
            inner = np.abs(x) <= 1.0
            errors.append((np.max(np.abs(v_after[0, inner] - _mms_after(0.0, x[inner]))),
                           np.max(np.abs(v_pre[0, inner] - _mms_pre(0.0, x[inner])))))
            assert (policy[:, inner] == MMS_U_STAR).all()
        for coarse, fine in zip(errors, errors[1:]):
            for e_coarse, e_fine in zip(coarse, fine):
                assert e_coarse / e_fine >= 2.2


# --------------------------------------------------------------------------
# the two-process solve_system: a controlled post regime marches in a forked
# child; the surfaces and the errors are those of solve_after + solve_pre
# --------------------------------------------------------------------------

def _serial(problem, grid):
    v_after = solve_after(problem, grid)
    return (v_after,) + solve_pre(problem, v_after, grid)


def _assert_serial_bits(surf, problem, grid):
    for got, want in zip((surf.v_after, surf.v_pre, surf.policy), _serial(problem, grid)):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_below(t_switch, exc, fn):
    def coefficient(t, x, u):
        if t < t_switch:
            raise exc
        return fn(t, x, u)
    return coefficient


@pytest.fixture
def forks(monkeypatch):
    """pids of the children os.fork made in this process."""
    pids, real = [], os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


class TestPipelinedSolve:
    @pytest.mark.parametrize("jump_map", [
        lambda t, x, u: x - u,
        lambda t, x, u: x - u * (1.0 + t),
    ], ids=["static-targets", "moving-targets"])
    def test_bitwise_the_serial_solve(self, forks, jump_map):
        prob = generic_problem(jump_map)
        surf = solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        _assert_no_child()
        _assert_serial_bits(surf, prob, EQUIV_GRID)
        # the post surface is the shared map itself, frozen, not a copy of it
        base = surf.v_after
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base.obj, mmap.mmap)    # numpy holds a memoryview of it
        assert not surf.v_after.flags.writeable

    @pytest.mark.parametrize("base, grid, drift_post", [
        (generic_problem(None), EQUIV_GRID, lambda t, x, u: np.sin(3 * x) + u),
        (merton_problem(dataclasses.replace(ACCEPT, h=0.0)), small_grid(n_x=41, n_t=150),
         lambda t, x, u: 0.05),
    ], ids=["generic", "merton"])
    def test_zero_hazard_pre_solve_ignores_the_post_regime(self, forks, monkeypatch,
                                                           base, grid, drift_post):
        def forbidden(t, x, u):
            raise AssertionError("jump_map evaluated at zero hazard")

        pipes, real = [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(real()) or pipes[-1])
        prob = dataclasses.replace(base, jump_map=forbidden, hazard=0.0)
        other = dataclasses.replace(prob, drift_post=drift_post)
        s1, s2 = solve_system(prob, grid), solve_system(other, grid)
        # each solve forked a worker with one pipe (rows) and no ring of jump rows
        assert len(forks) == 2 and len(pipes) == 2
        garbage = np.full((grid.n_t + 1, grid.n_x), 7.0)
        v_pre, policy = solve_pre(prob, garbage, grid)
        for surf in (s1, s2):
            np.testing.assert_array_equal(_bits(surf.v_pre), _bits(v_pre))
            np.testing.assert_array_equal(_bits(surf.policy), _bits(policy))
        assert not np.array_equal(s1.v_after, s2.v_after)

    @pytest.mark.parametrize("first_width", [1, 13])
    def test_every_first_post_step_width_forks_once(self, forks, first_width):
        base = generic_problem(lambda t, x, u: x - u)

        def drift_post(t, x, u):
            # one column at one of the two ends of the horizon, every control elsewhere
            one_column = (t == 1.0) == (first_width == 1)
            return 0.02 if one_column else base.drift_post(t, x, u)

        prob = dataclasses.replace(base, drift_post=drift_post,
                                   vol_post=lambda t, x, u: 0.25 + 0.0 * x,
                                   running_cost=lambda t, x, u: 0.0)
        surf = solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        _assert_no_child()
        _assert_serial_bits(surf, prob, EQUIV_GRID)

    def test_post_failure_wins_over_an_earlier_pre_failure(self, forks):
        base = generic_problem(lambda t, x, u: x - u)
        # the pre regime breaks the CFL bound at its first step, the post
        # regime only near t = 0, long after the pre march has failed
        prob = dataclasses.replace(
            base,
            vol_pre=lambda t, x, u: base.vol_pre(t, x, u) * (3.0 if t > 0.9 else 1.0),
            vol_post=lambda t, x, u: base.vol_post(t, x, u) * (5.0 if t < 0.2 else 1.0))
        with pytest.raises(CflViolationError) as serial:
            solve_after(prob, EQUIV_GRID)
        with pytest.raises(CflViolationError) as piped:
            solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        assert "post regime" in str(serial.value)
        assert str(piped.value) == str(serial.value)
        assert piped.value.min_n_t == serial.value.min_n_t
        _assert_no_child()

    def test_pre_failure_is_raised_when_the_post_solves(self, forks):
        base = generic_problem(lambda t, x, u: x - u)
        prob = dataclasses.replace(base, drift_pre=lambda t, x, u: np.where(
            t < 0.5, np.nan, base.drift_pre(t, x, u)))
        with pytest.raises(NumericalError) as serial:
            _serial(prob, EQUIV_GRID)
        with pytest.raises(NumericalError) as piped:
            solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        assert str(piped.value) == str(serial.value)
        _assert_no_child()

    def test_coarse_hazard_warning_comes_once_the_post_regime_solved(self, forks):
        # hazard * dt = 0.125 > HAZARD_DT_WARN: the pre march warns once it
        # finishes, so once, and not at all when the post march fails. The
        # grid is finer than EQUIV_GRID, where hazard 20 would break the
        # stability bound (0.36/dx^2 + 20 > n_t = 160)
        grid = dataclasses.replace(EQUIV_GRID, n_t=200)
        base = dataclasses.replace(generic_problem(lambda t, x, u: x - u), hazard=25.0)
        with pytest.warns(RuntimeWarning, match="hazard") as seen:
            solve_system(base, grid)
        assert len(seen) == 1
        failing = dataclasses.replace(base, drift_post=lambda t, x, u: np.where(
            t < 0.5, np.nan, base.drift_post(t, x, u)))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="^the post surface is not finite"):
                solve_system(failing, grid)
        assert not [w for w in seen if "hazard" in str(w.message)]
        assert len(forks) == 2

    def test_a_failing_pre_march_gives_no_hazard_warning(self, forks):
        # hazard * dt = 0.125 as above; the pre march fails below t = 0.5,
        # alone and beside the worker, before it could warn
        grid = dataclasses.replace(EQUIV_GRID, n_t=200)
        base = dataclasses.replace(generic_problem(lambda t, x, u: x - u), hazard=25.0)
        prob = dataclasses.replace(base, drift_pre=lambda t, x, u: np.where(
            t < 0.5, np.nan, base.drift_pre(t, x, u)))
        v_after = solve_after(prob, grid)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="^the pre surface is not finite"):
                solve_pre(prob, v_after, grid)
            with pytest.raises(NumericalError, match="^the pre surface is not finite"):
                solve_system(prob, grid)
        assert not [w for w in seen if "hazard" in str(w.message)]
        assert len(forks) == 1
        _assert_no_child()

    def test_a_warning_raised_as_an_error_is_not_solved_again(self, forks, monkeypatch):
        # hazard * dt = 0.125 as above; under an error filter the finished pre
        # march raises the warning beside the worker, where the serial path
        # would only raise it again
        grid = dataclasses.replace(EQUIV_GRID, n_t=200)
        prob = dataclasses.replace(generic_problem(lambda t, x, u: x - u), hazard=25.0)
        calls = []
        monkeypatch.setattr(hjb, "solve_after",
                            lambda *a: calls.append(a) or solve_after(*a))
        fds = _fd_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match=r"^hazard\*dt = 0\.125 > 0\.1; "):
                solve_system(prob, grid)
        assert calls == [] and len(forks) == 1
        assert _fd_count() == fds
        _assert_no_child()

    def test_assertion_in_the_worker_reaches_the_caller(self, forks):
        base = generic_problem(lambda t, x, u: x - u)
        prob = dataclasses.replace(base, drift_post=_raise_below(
            0.5, AssertionError("post drift checked"), base.drift_post))
        with pytest.raises(AssertionError, match="^post drift checked$"):
            solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        _assert_no_child()

    @pytest.mark.parametrize("field", ["drift_pre", "drift_post"])
    def test_keyboard_interrupt_leaves_no_child(self, forks, field):
        base = generic_problem(lambda t, x, u: x - u)
        prob = dataclasses.replace(base, **{field: _raise_below(
            0.5, KeyboardInterrupt, getattr(base, field))})
        with pytest.raises(KeyboardInterrupt):
            solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        _assert_no_child()

    def test_second_thread_keeps_the_solve_serial(self, forks):
        prob = generic_problem(lambda t, x, u: x - u)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            surf = solve_system(prob, EQUIV_GRID)
        finally:
            release.set()
            helper.join(timeout=10)
        assert not helper.is_alive()
        assert forks == []
        _assert_serial_bits(surf, prob, EQUIV_GRID)

    def test_no_fork_keeps_the_solve_serial(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        calls = []
        monkeypatch.setattr(hjb, "solve_after",
                            lambda *a: calls.append(a) or solve_after(*a))
        prob = generic_problem(lambda t, x, u: x - u)
        surf = solve_system(prob, EQUIV_GRID)
        assert len(calls) == 1
        _assert_serial_bits(surf, prob, EQUIV_GRID)

    def test_control_free_post_regime_forks_once(self, forks):
        caller, here = os.getpid(), []
        base = merton_problem()

        def drift_post(t, x, u):
            if os.getpid() == caller:
                here.append(t)
            return base.drift_post(t, x, u)

        prob = dataclasses.replace(base, drift_post=drift_post)
        grid = small_grid(n_x=41, n_t=150)
        surf = solve_system(prob, grid)
        # the caller takes the first post step, once, and the worker the rest
        assert here == [prob.horizon]
        assert len(forks) == 1
        _assert_no_child()
        _assert_serial_bits(surf, prob, grid)

    def test_refused_fork_gives_the_serial_solve(self, monkeypatch):
        def refuse():
            raise OSError("no process to spare")

        monkeypatch.setattr(os, "fork", refuse)
        fds = _fd_count()
        prob = generic_problem(lambda t, x, u: x - u)
        surf = solve_system(prob, EQUIV_GRID)
        _assert_no_child()
        assert _fd_count() == fds
        _assert_serial_bits(surf, prob, EQUIV_GRID)

    def test_read_error_in_the_caller_only_gives_the_serial_solve(self, forks, monkeypatch):
        caller, real = os.getpid(), os.read

        def read(fd, n):
            if os.getpid() == caller:
                raise OSError("read failed in the caller")
            return real(fd, n)

        prob = generic_problem(lambda t, x, u: x - u)
        with monkeypatch.context() as patch:
            patch.setattr(os, "read", read)
            surf = solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        _assert_no_child()
        _assert_serial_bits(surf, prob, EQUIV_GRID)


def _fd_count():
    """Open file descriptors of this process, or None where /proc is absent."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


# jump maps of each shape the kernel meets, a its shift and c its speed in t;
# the targets clamp past both edges of PIPE_GRID for most a
JUMP_SHAPES = {
    "scalar": lambda a, c: lambda t, x, u: a + c * t,
    "state-column": lambda a, c: lambda t, x, u: 3.0 * x + a + c * t,
    "control-row": lambda a, c: lambda t, x, u: a - u + c * t,
    "mesh": lambda a, c: lambda t, x, u: x - a * u * (1.0 + c * t),
}
PIPE_GRID = GridSpec(x_min=-1.0, x_max=1.0, n_x=21, n_t=60,
                     control_nodes=np.linspace(-1.0, 2.0, 7))


class TestSharedJumpRows:
    """The worker evaluates V_after at the jump targets ahead of the caller."""

    @given(shape=st.sampled_from(sorted(JUMP_SHAPES)), a=st.floats(-3.0, 3.0),
           moving=st.booleans(), hazard_dt=st.sampled_from([0.0, 1e-3, 0.095]))
    @settings(max_examples=30)
    def test_bits_are_those_of_the_serial_solves(self, shape, a, moving, hazard_dt):
        prob = dataclasses.replace(generic_problem(JUMP_SHAPES[shape](a, 0.5 * moving)),
                                   hazard=hazard_dt * PIPE_GRID.n_t)
        _assert_serial_bits(solve_system(prob, PIPE_GRID), prob, PIPE_GRID)

    def test_a_worker_too_slow_to_fill_leaves_the_rows_to_the_caller(self, forks):
        caller, own = os.getpid(), []

        def jump_map(t, x, u):
            if os.getpid() != caller:
                time.sleep(0.002)
            else:
                own.append(t)
            return x - u

        prob = generic_problem(jump_map)
        surf = solve_system(prob, EQUIV_GRID)
        evaluated_here = len(own)
        assert len(forks) == 1
        _assert_serial_bits(surf, prob, EQUIV_GRID)
        # the caller passes each row before the worker announces it (all of
        # them on an idle host), and evaluates it itself
        assert evaluated_here >= 0.9 * EQUIV_GRID.n_t

    def test_a_slow_caller_reads_the_rows_from_the_worker(self, forks):
        caller, own = os.getpid(), []
        base = generic_problem(lambda t, x, u: x - u)

        def drift_pre(t, x, u):
            if os.getpid() == caller:
                time.sleep(0.001)
            return base.drift_pre(t, x, u)

        def jump_map(t, x, u):
            if os.getpid() == caller:
                own.append(t)
            return x - u

        prob = dataclasses.replace(base, drift_pre=drift_pre, jump_map=jump_map)
        surf = solve_system(prob, EQUIV_GRID)
        evaluated_here = list(own)
        assert len(forks) == 1
        _assert_serial_bits(surf, prob, EQUIV_GRID)
        # the worker leaves the first two rows to the caller and, given the
        # time, fills every other one
        times = EQUIV_GRID.times(1.0)
        assert evaluated_here[:2] == [times[-1], times[-2]]
        assert len(evaluated_here) < EQUIV_GRID.n_t // 4

    def test_jump_map_failing_only_in_the_worker_gives_the_serial_solve(self, forks):
        caller = os.getpid()

        def jump_map(t, x, u):
            if os.getpid() != caller:
                raise ValueError("only in the worker")
            return x - u

        prob = generic_problem(jump_map)
        surf = solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        _assert_no_child()
        _assert_serial_bits(surf, prob, EQUIV_GRID)

    def test_jump_map_failure_is_raised_in_the_serial_order(self, forks):
        # the worker meets the non-finite targets long before the caller does
        prob = generic_problem(lambda t, x, u: x - u * (np.nan if t < 0.5 else 1.0))
        with pytest.raises(NumericalError) as serial:
            _serial(prob, EQUIV_GRID)
        with pytest.raises(NumericalError) as piped:
            solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        assert str(piped.value) == str(serial.value) == "jump_map produced a non-finite target"
        _assert_no_child()

    @pytest.mark.parametrize("t_stop", [0.5, 0.05], ids=["in-the-post-march", "after-it"])
    def test_keyboard_interrupt_in_the_workers_jump_map_leaves_no_child_or_fd(
            self, forks, t_stop):
        caller, fds = os.getpid(), _fd_count()

        def jump_map(t, x, u):
            if os.getpid() != caller and t < t_stop:
                raise KeyboardInterrupt
            return x - u

        prob = generic_problem(jump_map)
        surf = solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1
        _assert_no_child()
        assert _fd_count() == fds
        _assert_serial_bits(surf, prob, EQUIV_GRID)

    def test_jittered_processes_read_only_whole_rows(self, forks):
        # random pauses in both processes, the caller's between the slot
        # check and the read, shuffle the race between filling and reading
        caller, rng = os.getpid(), np.random.default_rng(5)
        pauses = rng.uniform(0.0, 4e-4, size=4096)
        base = generic_problem(lambda t, x, u: x - u * (1.0 + t))

        def pause(fn):
            def coefficient(t, x, u):
                time.sleep(pauses[(hash(t) + (os.getpid() != caller)) % pauses.size])
                return fn(t, x, u)
            return coefficient

        prob = dataclasses.replace(base, drift_pre=pause(base.drift_pre),
                                   jump_map=pause(base.jump_map))
        want = _serial(prob, EQUIV_GRID)
        for _ in range(3):
            surf = solve_system(prob, EQUIV_GRID)
            for got, ref in zip((surf.v_after, surf.v_pre, surf.policy), want):
                np.testing.assert_array_equal(_bits(got), _bits(ref))
        assert len(forks) == 3

    def test_zero_hazard_opens_one_pipe_and_no_ring(self, forks, monkeypatch):
        pipes, real = [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(real()) or pipes[-1])
        prob = dataclasses.replace(generic_problem(lambda t, x, u: x - u), hazard=0.0)
        solve_system(prob, EQUIV_GRID)
        assert len(forks) == 1 and len(pipes) == 1


# --------------------------------------------------------------------------
# the pre-switch policy is held as control node indices
# --------------------------------------------------------------------------

class TestPolicyIndex:
    @pytest.mark.parametrize("n_u, dtype", [(1, np.uint8), (61, np.uint8), (256, np.uint8),
                                            (257, np.uint16), (300, np.uint16)])
    def test_index_type_is_the_narrowest_that_holds_the_nodes(self, n_u, dtype):
        # pi* = 1 at ACCEPT, the top node: the picks reach n_u - 1
        grid = dataclasses.replace(small_grid(n_x=41, n_t=150),
                                   control_nodes=np.linspace(0.0, 1.0, n_u))
        prob = merton_problem()
        surf = solve_system(prob, grid)
        assert surf.policy_index.dtype == dtype
        assert surf.policy_index.shape == surf.v_pre.shape
        assert surf.policy_index.max() == n_u - 1
        assert not surf.policy_index.flags.writeable
        with pytest.raises(ValueError):
            surf.policy_index[0, 0] = 0
        _, policy = solve_pre(prob, solve_after(prob, grid), grid)
        np.testing.assert_array_equal(_bits(surf.policy), _bits(policy))

    def test_policy_is_built_anew_read_only_on_each_access(self):
        surf = solve_system(generic_problem(lambda t, x, u: x - u), EQUIV_GRID)
        first, second = surf.policy, surf.policy
        assert first is not second and not np.shares_memory(first, second)
        assert first.dtype == np.float64 and not first.flags.writeable
        np.testing.assert_array_equal(
            _bits(first), _bits(EQUIV_GRID.control_nodes[surf.policy_index]))

    @pytest.mark.parametrize("path", ["fork", "serial"])
    def test_policy_is_solve_pre_and_the_reference_on_both_paths(self, forks, monkeypatch,
                                                                 path):
        if path == "serial":
            monkeypatch.delattr(os, "fork")
        prob = generic_problem(lambda t, x, u: x - u * (1.0 + t))
        surf = solve_system(prob, EQUIV_GRID)
        assert len(forks) == (path == "fork")
        _assert_no_child()
        _, _, ref = _ref_solve(prob, EQUIV_GRID)
        _, policy = solve_pre(prob, solve_after(prob, EQUIV_GRID), EQUIV_GRID)
        np.testing.assert_array_equal(_bits(surf.policy), _bits(ref))
        np.testing.assert_array_equal(_bits(surf.policy), _bits(policy))
        assert len(np.unique(ref[0])) > 1

    def test_serial_solve_holds_two_float_surfaces_and_one_index_surface(self, monkeypatch):
        # surfaces of 1001 x 41 values beside a 41 x 13 mesh: a float policy
        # surface would add 77 mesh buffers to the peak
        monkeypatch.delattr(os, "fork")
        grid = dataclasses.replace(EQUIV_GRID, n_t=1000)
        prob = generic_problem(lambda t, x, u: x - u)
        surface = 8 * (grid.n_t + 1) * grid.n_x
        mesh = 8 * grid.n_x * grid.control_nodes.size
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            surf = solve_system(prob, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert surf.policy_index.nbytes == surface // 8
        assert peak <= 2 * surface + surface // 8 + 32 * mesh
