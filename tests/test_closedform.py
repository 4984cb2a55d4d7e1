import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import losses, markets, policy

from regimehjb.closedform import (FCoefficientVariant, expected_log_utility_exact,
                                  f_closed_form, f_ode_coefficients, j_after,
                                  optimal_weight, policy_log_drift)
from regimehjb.model import DefaultLossModel, MarketParams, NumericalError

DERIVED = FCoefficientVariant.DERIVED
PAPER = FCoefficientVariant.PAPER
EXP = DefaultLossModel.EXPONENTIAL
LIN = DefaultLossModel.LINEAR

ACCEPT = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)


def random_param_sets(n, seed, h_floor=0.0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        p = MarketParams(mu=rng.uniform(0.0, 0.15), sigma=rng.uniform(0.1, 0.6),
                         r=rng.uniform(0.0, 0.05), h=rng.uniform(h_floor, 0.08),
                         horizon_T=rng.uniform(0.25, 3.0), w0=rng.uniform(0.5, 4.0))
        out.append(p)
    return out


class TestOptimalWeight:
    def test_merton_reduction_value(self):
        p = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=1.0)
        assert optimal_weight(p) == (p.mu - p.r) / p.sigma ** 2  # bitwise
        assert optimal_weight(p) == pytest.approx(1.5, abs=1e-14)

    def test_merton_reduction_is_bitwise(self):
        for p in random_param_sets(25, seed=3):
            p0 = MarketParams(p.mu, p.sigma, p.r, 0.0, p.horizon_T, p.w0)
            assert optimal_weight(p0) == (p0.mu - p0.r) / p0.sigma ** 2

    def test_zero_excess_drift(self):
        # 0.05 - 0.025 - 0.025 is exact in binary, so the zero is bitwise
        p = MarketParams(mu=0.05, sigma=0.3, r=0.025, h=0.025, horizon_T=1.0, w0=1.0)
        assert optimal_weight(p) == 0.0

    def test_against_grid_argmax_of_quadratic(self):
        # independent oracle: brute-force argmax of q(pi) = pi (mu-r-h) - pi^2 sig^2/2
        grid = np.arange(0.0, 3.0 + 1e-12, 1e-4)
        q = grid * (ACCEPT.mu - ACCEPT.r - ACCEPT.h) - 0.5 * grid ** 2 * ACCEPT.sigma ** 2
        brute = grid[np.argmax(q)]
        assert abs(brute - 1.0) <= 5e-5
        assert optimal_weight(ACCEPT) == pytest.approx(brute, abs=5e-5)

    def test_first_order_condition_dominance(self):
        # q(pi*) >= q(pi) for every pi in the bounds, across parameter draws
        grid = np.linspace(0.0, 3.0, 1201)
        for p in random_param_sets(20, seed=5):
            pi_star = optimal_weight(p)
            if not 0.0 < pi_star < 3.0:
                continue
            m = p.mu - p.r - p.h

            def q(pi):
                return pi * m - 0.5 * pi ** 2 * p.sigma ** 2

            assert np.all(q(pi_star) >= q(grid) - 1e-15)


class TestJAfter:
    def test_zero_at_maturity_unit_wealth(self):
        assert j_after(ACCEPT, 1.0, ACCEPT.horizon_T) == 0.0

    def test_rate_term_signed_by_t_minus_T(self):
        assert j_after(ACCEPT, 1.0, 0.0) == pytest.approx(-0.02, abs=1e-15)

    def test_zero_rate_leaves_log_wealth(self):
        p = MarketParams(mu=0.08, sigma=0.2, r=0.0, h=0.02, horizon_T=1.0, w0=1.0)
        for t in (0.0, 0.3, 1.0):
            assert j_after(p, math.e, t) == pytest.approx(1.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            j_after(ACCEPT, 0.0, 0.5)
        with pytest.raises(ValueError):
            j_after(ACCEPT, -1.0, 0.5)
        with pytest.raises(ValueError):
            j_after(ACCEPT, 1.0, 1.5)

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_rejects_wealth_that_is_not_finite(self, w):
        with pytest.raises(ValueError, match="wealth"):
            j_after(ACCEPT, w, 0.5)


class TestFOdeCoefficients:
    def test_variants_coincide_at_unit_sigma(self):
        p = MarketParams(mu=0.13, sigma=1.0, r=0.02, h=0.01, horizon_T=1.0, w0=1.0)
        assert p.mu - p.r - p.h == pytest.approx(0.1)
        k_d = f_ode_coefficients(p, DERIVED)
        k_p = f_ode_coefficients(p, PAPER)
        assert k_d == k_p == pytest.approx(0.005, abs=1e-17)

    def test_acceptance_values(self):
        k_d = f_ode_coefficients(ACCEPT, DERIVED)
        k_p = f_ode_coefficients(ACCEPT, PAPER)
        assert k_d == pytest.approx(0.02, abs=1e-15)       # 0.04^2 / (2*0.04)
        assert k_p == pytest.approx(0.0392, abs=1e-15)     # 0.04^2 * 1.96 / 0.08


class TestExtremeSigma:
    # sigma**2 is 0 at 1e-200 and a subnormal at 1e-160, where the weight
    # and K overflow; at 1e200 it is inf, and the paper K is inf / inf
    @pytest.mark.parametrize("sigma", [1e-200, 1e-160])
    def test_tiny_sigma_is_a_numerical_error_naming_sigma(self, sigma):
        p = dataclasses.replace(ACCEPT, sigma=sigma)
        with pytest.raises(NumericalError, match=f"optimal weight .* sigma={sigma!r}"):
            optimal_weight(p)
        for variant in FCoefficientVariant:
            with pytest.raises(NumericalError, match=f"K .* sigma={sigma!r}"):
                f_ode_coefficients(p, variant)

    def test_huge_sigma_has_a_zero_weight_and_no_paper_k(self):
        p = dataclasses.replace(ACCEPT, sigma=1e200)
        assert optimal_weight(p) == 0.0 and f_ode_coefficients(p, DERIVED) == 0.0
        with pytest.raises(NumericalError, match="sigma=1e[+]200"):
            f_ode_coefficients(p, PAPER)


class TestFClosedForm:
    @pytest.mark.parametrize("variant", [DERIVED, PAPER])
    def test_terminal_condition_exact(self, variant):
        for p in random_param_sets(10, seed=9):
            assert f_closed_form(p, p.horizon_T, variant) == 0.0

    def test_zero_hazard_reduces_to_classic_value_rate(self):
        p = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=1.0)
        # (r + (mu-r)^2 / (2 sigma^2)) * T = 0.065
        assert f_closed_form(p, 0.0, DERIVED) == pytest.approx(0.065, abs=1e-15)

    def test_matches_exact_oracle_at_optimum(self):
        # the closed form must reproduce the exact-integral value of pi*, also
        # at hazards where K/h or (alpha - r)/h overflows (1e-310) or nearly so
        markets = random_param_sets(10, seed=13, h_floor=1e-4)
        markets += [dataclasses.replace(p, h=h) for p in (ACCEPT, *markets[:2])
                    for h in (1e-310, 1e-12, 5e-11, 1e-10)]
        for p in markets:
            lhs = f_closed_form(p, 0.0, DERIVED)
            rhs = expected_log_utility_exact(p, optimal_weight(p), EXP) - math.log(p.w0)
            assert abs(lhs - rhs) <= 1e-12

    def test_ode_residual_is_second_order(self):
        # central difference of f must satisfy f' - h f + K + r + h r (T-t) = 0
        p = MarketParams(mu=0.10, sigma=0.25, r=0.03, h=0.6, horizon_T=1.0, w0=1.0)
        residual_at = {}
        for dt in (1e-3, 5e-4):
            ts = np.arange(dt, p.horizon_T - dt / 2, dt)
            for variant in (DERIVED, PAPER):
                k = f_ode_coefficients(p, variant)
                f = np.array([f_closed_form(p, t, variant) for t in ts])
                fp = (f[2:] - f[:-2]) / (2 * dt)
                res = fp - p.h * f[1:-1] + k + p.r + p.h * p.r * (p.horizon_T - ts[1:-1])
                residual_at[(variant, dt)] = np.max(np.abs(res))
        for variant in (DERIVED, PAPER):
            coarse = residual_at[(variant, 1e-3)]
            fine = residual_at[(variant, 5e-4)]
            assert coarse < 1e-6
            assert fine < coarse / 3.0  # O(dt^2): halving dt shrinks by ~4

    def test_continuity_across_hazard_threshold(self):
        base = dict(mu=0.08, sigma=0.2, r=0.02, horizon_T=2.0, w0=1.0)
        eps = 2e-10
        p_small = MarketParams(h=eps, **base)
        k = f_ode_coefficients(p_small, DERIVED)
        for t in (0.0, 0.7, 1.9):
            exact = f_closed_form(p_small, t, DERIVED)
            limit = (k + p_small.r) * (p_small.horizon_T - t)
            assert abs(exact - limit) <= k * p_small.horizon_T ** 2 * eps * 10

    def test_domain_error_outside_horizon(self):
        with pytest.raises(ValueError):
            f_closed_form(ACCEPT, -0.1)
        with pytest.raises(ValueError):
            f_closed_form(ACCEPT, 1.1)
        with pytest.raises(ValueError):
            f_closed_form(ACCEPT, np.array([0.0, 0.5, 1.1]))
        with pytest.raises(ValueError):
            f_closed_form(ACCEPT, np.array([0.0, np.nan]))

    @pytest.mark.parametrize("variant", [DERIVED, PAPER])
    @pytest.mark.parametrize("h", [0.0, 1e-310, 1e-11, 0.02, 0.6])
    def test_array_times_match_scalar_calls(self, variant, h):
        p = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=h, horizon_T=1.0, w0=1.0)
        ts = np.linspace(0.0, p.horizon_T, 10_001)
        f = f_closed_form(p, ts, variant)
        assert isinstance(f, np.ndarray) and f.shape == ts.shape
        scalar = np.array([f_closed_form(p, t, variant) for t in ts])
        assert np.max(np.abs(f - scalar)) <= 1e-15
        assert f[-1] == 0.0

    def test_scalar_time_returns_float(self):
        assert type(f_closed_form(ACCEPT, 0.5)) is float
        assert type(f_closed_form(ACCEPT, np.float64(0.5))) is float


class TestExpectedLogUtilityExact:
    def test_all_cash_no_hazard(self):
        p = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=2.0)
        assert expected_log_utility_exact(p, 0.0, EXP) == math.log(2.0) + 0.02

    def test_zero_allocation_makes_default_costless(self):
        assert expected_log_utility_exact(ACCEPT, 0.0, EXP) == pytest.approx(0.02,
                                                                             abs=1e-16)

    def test_against_quadrature(self):
        # independent oracle: trapezoid rule on the default-time integral
        for p in random_param_sets(6, seed=21, h_floor=1e-3):
            for pi in (0.0, 0.7, 1.8):
                for loss in (EXP, LIN):
                    if loss is LIN and pi >= 1.0:
                        continue
                    alpha = policy_log_drift(p, pi)
                    drop = loss.log_wealth_drop(pi)
                    tau = np.linspace(0.0, p.horizon_T, 200_001)
                    integrand = (p.h * np.exp(-p.h * tau)
                                 * (alpha * tau + drop + p.r * (p.horizon_T - tau)))
                    quad = (math.log(p.w0) + math.exp(-p.h * p.horizon_T) * alpha
                            * p.horizon_T + np.trapezoid(integrand, tau))
                    got = expected_log_utility_exact(p, pi, loss)
                    assert got == pytest.approx(quad, abs=1e-10)

    def test_argmax_matches_optimal_weight(self):
        grid = np.arange(0.0, 3.0 + 1e-9, 1e-3)
        vals = expected_log_utility_exact(ACCEPT, grid, EXP)
        best = grid[int(np.argmax(vals))]
        assert abs(best - optimal_weight(ACCEPT)) <= 1e-3 + 1e-12

    def test_argmax_agreement_across_params(self):
        grid = np.arange(0.0, 3.0 + 1e-9, 1e-3)
        for p in random_param_sets(15, seed=33):
            pi_star = optimal_weight(p)
            if not 0.05 < pi_star < 2.95:
                continue
            vals = expected_log_utility_exact(p, grid, EXP)
            best = grid[int(np.argmax(vals))]
            assert abs(best - pi_star) <= 1e-3 + 1e-12

    def test_linear_loss_domain_error(self):
        with pytest.raises(ValueError):
            expected_log_utility_exact(ACCEPT, 1.0, LIN)
        p0 = MarketParams(mu=0.08, sigma=0.2, r=0.02, h=0.0, horizon_T=1.0, w0=1.0)
        with pytest.raises(ValueError):
            expected_log_utility_exact(p0, 1.2, LIN)

    def test_vectorized_over_pi(self):
        # at h = 1e-310, (alpha - r)/h overflows for pi = 0.5 and 1 but not
        # for pi = 0 and 0.1: both kinds in one array
        grid = np.array([0.0, 0.1, 0.5, 1.0])
        for p in (ACCEPT, dataclasses.replace(ACCEPT, h=1e-310)):
            vals = expected_log_utility_exact(p, grid, EXP)
            singles = [expected_log_utility_exact(p, float(pi), EXP) for pi in grid]
            np.testing.assert_allclose(vals, singles, rtol=0, atol=0)
        no_hazard = expected_log_utility_exact(dataclasses.replace(ACCEPT, h=0.0), grid, EXP)
        np.testing.assert_allclose(vals, no_hazard, rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# properties over random admissible markets (derandomized, see conftest.py)
# --------------------------------------------------------------------------

# hazards from subnormal up to 1e-4, uniform in the exponent
small_hazards = st.floats(-320.0, -4.0).map(lambda e: 10.0 ** e)


class TestClosedFormProperties:
    @given(params=markets)
    def test_derived_f0_is_the_oracle_at_the_optimum_less_log_w0(self, params):
        pi_star = optimal_weight(params)
        f0 = f_closed_form(params, 0.0, DERIVED)
        log_w0 = math.log(params.w0)
        oracle = expected_log_utility_exact(params, pi_star, EXP)
        # rounding allowance on the largest terms either side adds up
        scale = (1.0 + abs(log_w0) + abs(f0) + params.horizon_T
                 * (abs(pi_star * (params.mu - params.r)) + (pi_star * params.sigma) ** 2))
        assert abs(f0 - (oracle - log_w0)) <= 1e-12 * scale

    @given(params=markets, h=small_hazards, t_frac=st.floats(0.0, 1.0))
    def test_f_closed_form_is_continuous_as_h_goes_to_zero(self, params, h, t_frac):
        p0 = dataclasses.replace(params, h=0.0)
        t = t_frac * params.horizon_T
        s = params.horizon_T - t
        f0 = f_closed_form(p0, t, DERIVED)
        fh = f_closed_form(dataclasses.replace(params, h=h), t, DERIVED)
        # with K(h) = (m - h)^2 / (2 sigma^2), m = mu - r:
        # |f_h - f_0| <= |K(h) - K(0)| s + K(0) h s^2 / 2
        k0 = f_ode_coefficients(p0, DERIVED)
        m = params.mu - params.r
        bound = h * s * (2.0 * abs(m) + h) / (2.0 * params.sigma ** 2) + 0.5 * k0 * h * s * s
        assert abs(fh - f0) <= bound + 1e-12 * (1.0 + abs(f0))

    @given(params=markets, loss=losses,
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_oracle_at_zero_hazard_is_log_w0_plus_the_drift_bitwise(self, params, loss,
                                                                     fracs):
        p0 = dataclasses.replace(params, h=0.0)
        pis = np.array([-0.0] + [policy(loss, frac) for frac in fracs])
        want = math.log(p0.w0) + policy_log_drift(p0, pis) * p0.horizon_T
        assert expected_log_utility_exact(p0, pis, loss).tobytes() == want.tobytes()
        for pi, value in zip(pis, want):
            got = expected_log_utility_exact(p0, float(pi), loss)
            assert type(got) is float and np.float64(got).tobytes() == value.tobytes()

    @given(params=markets, loss=losses, frac=st.floats(0.0, 1.0), h=small_hazards)
    def test_oracle_is_continuous_as_h_goes_to_zero(self, params, loss, frac, h):
        pi = policy(loss, frac)
        e0 = expected_log_utility_exact(dataclasses.replace(params, h=0.0), pi, loss)
        eh = expected_log_utility_exact(dataclasses.replace(params, h=h), pi, loss)
        T = params.horizon_T
        alpha = policy_log_drift(params, pi)
        drop = loss.log_wealth_drop(pi)
        # E_h - E_0 = ((1 - exp(-h T)) / h - T) (alpha - r) + (1 - exp(-h T)) L
        bound = h * T * (0.5 * T * abs(alpha - params.r) + abs(drop))
        scale = 1.0 + abs(e0) + T * (abs(alpha) + params.r) + abs(drop)
        assert abs(eh - e0) <= bound + 1e-12 * scale
