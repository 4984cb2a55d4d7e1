import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import markets

from regimehjb.closedform import (FCoefficientVariant, f_closed_form,
                                  f_ode_coefficients)
from regimehjb.model import ConfigError, MarketParams
from regimehjb.odesolve import OdeConfig, solve_f_backward

DERIVED = FCoefficientVariant.DERIVED
PAPER = FCoefficientVariant.PAPER

ACCEPT = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)
# strong hazard and excess drift so RK4 truncation error is measurable
STIFFISH = MarketParams(mu=0.55, sigma=0.2, r=0.3, h=1.5, horizon_T=1.0, w0=1.0)


def reference_rk4(params, variant, cfg):
    """The RK4 loop with its right-hand side as a closure, one call per stage."""
    k = f_ode_coefficients(params, variant)
    h, r = params.h, params.r

    def rhs(s, g):
        return -h * g + k + r + h * r * s

    ds = cfg.stable_step(params)
    n = cfg.n_intervals(params.horizon_T)
    values = np.empty(n + 1)
    values[0] = g = 0.0
    for i in range(n):
        s = i * ds
        k1 = rhs(s, g)
        k2 = rhs(s + 0.5 * ds, g + 0.5 * ds * k1)
        k3 = rhs(s + 0.5 * ds, g + 0.5 * ds * k2)
        k4 = rhs(s + ds, g + ds * k3)
        g += ds * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        values[i + 1] = g
    return values[::-1]


def max_dev(params, variant, step):
    curve = solve_f_backward(params, variant, OdeConfig(step=step))
    closed = np.array([f_closed_form(params, t, variant) for t in curve.times])
    return float(np.max(np.abs(curve.values - closed)))


class TestOdeConfig:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            OdeConfig(step=0.0)
        with pytest.raises(ValueError):
            OdeConfig(step=-1e-3)

    def test_rejects_nan_step(self):
        with pytest.raises(ValueError, match="step"):
            OdeConfig(step=float("nan"))

    def test_interval_count_rounds_up_without_fp_spill(self):
        assert OdeConfig(step=1e-4).n_intervals(1.0) == 10_000
        assert OdeConfig(step=0.3).n_intervals(1.0) == 4
        assert OdeConfig(step=2.0).n_intervals(1.0) == 1


class TestSolveFBackward:
    def test_terminal_entry_is_zero(self):
        curve = solve_f_backward(ACCEPT, DERIVED, OdeConfig(step=1e-2))
        assert curve.values[-1] == 0.0
        assert curve.times[0] == 0.0 and curve.times[-1] == ACCEPT.horizon_T

    def test_grid_is_uniform_and_complete(self):
        curve = solve_f_backward(ACCEPT, DERIVED, OdeConfig(step=0.25))
        np.testing.assert_allclose(curve.times, [0.0, 0.25, 0.5, 0.75, 1.0],
                                   rtol=0, atol=1e-15)

    def test_zero_right_hand_side_gives_zero_curve(self):
        p = MarketParams(mu=0.0, sigma=0.2, r=0.0, h=0.0, horizon_T=1.0, w0=1.0)
        curve = solve_f_backward(p, DERIVED, OdeConfig(step=1e-2))
        np.testing.assert_array_equal(curve.values, 0.0)

    @pytest.mark.parametrize("variant", [DERIVED, PAPER])
    def test_agrees_with_closed_form(self, variant):
        assert max_dev(ACCEPT, variant, step=1e-3) <= 1e-10

    def test_variant_agnostic_kernel(self):
        # kernel only sees a different K; both variants must hit the same accuracy
        dev_d = max_dev(STIFFISH, DERIVED, step=1e-3)
        dev_p = max_dev(STIFFISH, PAPER, step=1e-3)
        assert dev_d <= 1e-10 and dev_p <= 1e-10

    def test_fourth_order_convergence(self):
        coarse = max_dev(STIFFISH, DERIVED, step=0.05)
        fine = max_dev(STIFFISH, DERIVED, step=0.025)
        assert coarse > 1e-12  # truncation, not rounding, dominates
        assert 12.0 <= coarse / fine <= 20.0

    def test_closed_form_h_to_zero_limit_via_rk4(self):
        # cross-check of the limit branch: integrate at a vanishing hazard
        p = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=1e-12, horizon_T=1.0, w0=1.0)
        curve = solve_f_backward(p, DERIVED, OdeConfig(step=1e-3))
        limit = f_closed_form(p, 0.0, DERIVED)  # h below threshold: limit formula
        assert curve.values[0] == pytest.approx(limit, abs=1e-9)
        assert limit == pytest.approx(0.065, abs=1e-9)

    def test_a_step_past_the_stability_limit_is_a_config_error(self):
        # h ds = 2.78 is inside RK4's real stability interval (about 2.785),
        # 2.79 is past it: f0 was -2.2e36 there
        def at(h):
            return MarketParams(mu=0.08, sigma=0.2, r=0.02, h=h, horizon_T=1.0, w0=1.0)

        closed = f_closed_form(at(2.78e4), 0.0, DERIVED)
        assert solve_f_backward(at(2.78e4)).values[0] == pytest.approx(closed, rel=1e-2)
        with pytest.raises(ConfigError, match=r"^ode\.step = 0\.0001 gives RK4 steps"):
            solve_f_backward(at(2.79e4))

    @pytest.mark.parametrize("variant", [DERIVED, PAPER])
    @pytest.mark.parametrize("params, step", [
        (ACCEPT, 1e-4),
        (STIFFISH, 1e-3),
        (MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=1.0), 1e-3),
        # h * ds = 2.7, near RK4's stability limit
        (MarketParams(mu=0.08, sigma=0.2, r=0.3, h=2.7e4, horizon_T=1.0, w0=1.0), 1e-4),
        (MarketParams(mu=0.1, sigma=0.3, r=0.05, h=0.5, horizon_T=7.3, w0=1.0), 0.0123),
    ], ids=["accept", "stiffish", "h=0", "h*ds=2.7", "long-horizon"])
    def test_bitwise_the_closure_loop(self, params, step, variant):
        cfg = OdeConfig(step=step)
        curve = solve_f_backward(params, variant, cfg)
        want = reference_rk4(params, variant, cfg)
        assert curve.values.tobytes() == want.tobytes()


class TestOdeProperties:
    @given(params=markets, variant=st.sampled_from(list(FCoefficientVariant)))
    def test_rk4_is_close_to_the_closed_form(self, params, variant):
        # step 1e-2 keeps h * step <= 0.02; the worst relative deviation over
        # 6000 random markets of this range was 1.0e-9
        curve = solve_f_backward(params, variant, OdeConfig(step=1e-2))
        closed = f_closed_form(params, curve.times, variant)
        assert np.max(np.abs(curve.values - closed)) <= 1e-8 * (1.0 + np.max(np.abs(closed)))
