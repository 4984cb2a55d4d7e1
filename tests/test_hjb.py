import dataclasses

import numpy as np
import pytest

from regimehjb.closedform import f_closed_form, optimal_weight
from regimehjb.hjb import (CflViolationError, GridSpec, NumericalError,
                           ValueSurface, post_hamiltonian, pre_hamiltonian,
                           solve_after, solve_pre, solve_system,
                           validate_grid_for)
from regimehjb.model import (DefaultLossModel, MarketParams, RegimeControlProblem,
                             merton_as_generic)

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
        dict(n_t=0),
        dict(control_nodes=np.array([])),
        dict(control_nodes=np.array([0.5, 0.5])),
        dict(control_nodes=np.array([[0.1, 0.2]])),
    ])
    def test_rejects_invalid(self, kw):
        base = dict(x_min=-4.0, x_max=4.0, n_x=101, n_t=200, control_nodes=NODES)
        with pytest.raises(ValueError):
            GridSpec(**{**base, **kw})

    def test_interior_mask(self):
        g = small_grid()
        mask = g.interior_mask(4.5, 0.5)
        x = g.x_nodes[mask]
        assert x.min() >= 0.5 and x.max() <= 3.5


class TestCfl:
    def test_violation_names_minimal_n_t(self):
        prob = merton_problem()
        grid = small_grid(n_x=801, n_t=100)  # dx=0.01, max vol^2=0.36 -> n_t ~ 3600
        with pytest.raises(CflViolationError) as exc:
            solve_pre(prob, np.zeros((101, 801)), grid)
        n_min = exc.value.min_n_t
        assert n_min in (3600, 3601)  # fp wobble of the ratio decides the ulp
        assert str(n_min) in str(exc.value)
        # the suggested n_t is sufficient and minimal under the same comparison
        ok = GridSpec(x_min=-4.0, x_max=4.0, n_x=801, n_t=n_min, control_nodes=NODES)
        validate_grid_for(prob, ok, "pre")
        bad = GridSpec(x_min=-4.0, x_max=4.0, n_x=801, n_t=n_min - 1,
                       control_nodes=NODES)
        with pytest.raises(CflViolationError):
            validate_grid_for(prob, bad, "pre")

    def test_post_regime_without_diffusion_is_unconstrained(self):
        prob = merton_problem()
        grid = small_grid(n_x=801, n_t=10)  # would badly violate the pre bound
        validate_grid_for(prob, grid, "post")

    def test_control_nodes_outside_bounds_rejected(self):
        prob = merton_problem(control_bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            validate_grid_for(prob, small_grid(), "pre")


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
        # a narrow vol spike at t = 0.25 is invisible at t in {0, T/2, T}
        base = merton_problem()

        def spiky(t, x, u):
            return u * ACCEPT.sigma * (1.0 + 20.0 * np.exp(-((t - 0.25) / 0.01) ** 2))

        prob = dataclasses.replace(base, vol_pre=spiky)
        grid = small_grid()  # dt = 0.005, dx = 0.08; a step lands on t = 0.25
        validate_grid_for(prob, grid, "pre")
        with pytest.raises(CflViolationError) as exc:
            solve_system(prob, grid)
        # stepping backward from T, the first step time whose own max(vol^2)
        # breaks the bound names the n_t
        dt = grid.dt(prob.horizon)
        for t in grid.times(prob.horizon)[::-1]:
            sq = float(np.max(spiky(t, 0.0, NODES) ** 2))
            if dt > grid.dx ** 2 / sq:
                break
        assert 0.25 < t < 0.3
        expected = int(np.ceil(prob.horizon * sq / grid.dx ** 2))
        assert exc.value.min_n_t == expected
        assert f"t={t:.6g}" in str(exc.value) and str(expected) in str(exc.value)

    @pytest.mark.parametrize("field, bad", [
        ("drift_pre", lambda t, x, u: np.where(t < 0.5, np.nan, 0.02 + 0.0 * u)),
        ("vol_pre", lambda t, x, u: np.where(t < 0.5, np.nan, 0.2 * u)),
        ("running_cost", lambda t, x, u: np.inf if t < 0.5 else 0.0),
        ("drift_post", lambda t, x, u: np.where(t < 0.5, np.inf, 0.02)),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_coefficient_raises(self, field, bad):
        prob = dataclasses.replace(merton_problem(), **{field: bad})
        with pytest.raises(NumericalError):
            solve_system(prob, small_grid())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_after_surface_raises(self):
        prob = merton_problem()
        grid = small_grid()
        v_after = solve_after(prob, grid).copy()
        v_after[100, 50] = np.inf
        with pytest.raises(NumericalError):
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
