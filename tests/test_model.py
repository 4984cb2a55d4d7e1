import dataclasses
import math

import numpy as np
import pytest

from regimehjb.model import (DEFAULT_CONTROL_BOUNDS, ConfigError, DefaultLossModel,
                             FCurve, MarketParams, RegimeControlProblem,
                             merton_as_generic)

BASE = dict(mu=0.08, sigma=0.2, r=0.02, h=0.02, horizon_T=1.0, w0=1.0)


def make_params(**over):
    return MarketParams(**{**BASE, **over})


class TestMarketParams:
    def test_valid_instance(self):
        p = make_params()
        assert p.mu == 0.08 and p.h == 0.02

    @pytest.mark.parametrize("field,value", [
        ("sigma", 0.0), ("sigma", -0.1),
        ("horizon_T", 0.0), ("horizon_T", -1.0),
        ("w0", 0.0), ("w0", -2.0),
        ("h", -1e-9),
        ("mu", float("nan")), ("r", float("inf")),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})

    def test_frozen(self):
        p = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.mu = 0.1

    def test_no_mu_r_ordering_required(self):
        make_params(mu=0.0, r=0.05)  # borrowing-cheaper markets are allowed


class TestDefaultLossModel:
    def test_exponential_drop_is_minus_pi(self):
        loss = DefaultLossModel.EXPONENTIAL
        assert loss.log_wealth_drop(1.0) == -1.0
        np.testing.assert_array_equal(loss.log_wealth_drop(np.array([0.0, 2.5])),
                                      [0.0, -2.5])

    def test_linear_drop_value(self):
        # spot check: ln(1 - 0.5) to high precision
        got = DefaultLossModel.LINEAR.log_wealth_drop(0.5)
        assert got == pytest.approx(-0.6931471805599453, abs=1e-15)

    def test_linear_rejects_total_loss(self):
        # a configuration fault wherever it is met (a config's pi or sweep.pi_hi)
        with pytest.raises(ConfigError, match="pi < 1"):
            DefaultLossModel.LINEAR.log_wealth_drop(1.0)
        with pytest.raises(ConfigError, match="pi < 1"):
            DefaultLossModel.LINEAR.log_wealth_drop(np.array([0.2, 1.3]))


class TestMertonAsGeneric:
    def test_zero_allocation_drifts_risk_free(self):
        prob = merton_as_generic(make_params())
        assert prob.drift_pre(0.0, 0.0, 0.0) == 0.02

    def test_exponential_jump_is_translation(self):
        prob = merton_as_generic(make_params())
        assert prob.jump_map(0.0, 0.0, 1.0) == -1.0
        rng = np.random.default_rng(7)
        for _ in range(50):
            t, x, u = rng.uniform(0, 1), rng.uniform(-5, 5), rng.uniform(0, 3)
            assert prob.jump_map(t, x, u) == x - u

    def test_linear_jump_value(self):
        prob = merton_as_generic(make_params(), DefaultLossModel.LINEAR,
                                 control_bounds=(0.0, 0.9))
        assert prob.jump_map(0.0, 0.0, 0.5) == pytest.approx(-0.6931471805599453,
                                                             abs=1e-15)

    def test_linear_with_unit_leverage_rejected(self):
        with pytest.raises(ValueError):
            merton_as_generic(make_params(), DefaultLossModel.LINEAR,
                              control_bounds=(0.0, 1.0))

    def test_coefficients_state_and_time_independent(self):
        prob = merton_as_generic(make_params())
        rng = np.random.default_rng(11)
        for _ in range(50):
            t, x, u = rng.uniform(0, 1), rng.uniform(-4, 4), rng.uniform(0, 3)
            assert prob.drift_pre(t, x, u) == prob.drift_pre(0.0, 0.0, u)
            assert prob.vol_pre(t, x, u) == u * 0.2

    def test_objective_pieces(self):
        p = make_params()
        prob = merton_as_generic(p)
        x = np.linspace(-3, 3, 7)
        np.testing.assert_array_equal(prob.terminal_cost(x), -x)
        assert prob.running_cost(0.1, 0.5, 1.2) == 0.0
        assert prob.hazard == p.h
        assert prob.horizon == p.horizon_T
        assert prob.control_bounds == DEFAULT_CONTROL_BOUNDS

    def test_callables_broadcast(self):
        # coefficients must be broadcastable onto the full (state, control) mesh
        prob = merton_as_generic(make_params())
        x = np.linspace(-1, 1, 5)[:, None]
        u = np.linspace(0, 3, 4)[None, :]
        for fn in (prob.drift_pre, prob.vol_pre, prob.jump_map):
            shape = np.shape(fn(0.0, x, u))
            assert np.broadcast_shapes(shape, (5, 4)) == (5, 4)
        assert np.shape(prob.jump_map(0.0, x, u)) == (5, 4)


class TestRegimeControlProblem:
    def test_rejects_empty_control_interval(self):
        with pytest.raises(ValueError):
            merton_as_generic(make_params(), control_bounds=(1.0, 1.0))

    def test_rejects_negative_hazard(self):
        with pytest.raises(ValueError):
            RegimeControlProblem(
                drift_pre=lambda t, x, u: 0.0, vol_pre=lambda t, x, u: 0.0,
                drift_post=lambda t, x, u: 0.0, vol_post=lambda t, x, u: 0.0,
                hazard=-0.1, jump_map=lambda t, x, u: x,
                running_cost=lambda t, x, u: 0.0, terminal_cost=lambda x: -x,
                control_bounds=(0.0, 1.0), horizon=1.0)

    @pytest.mark.parametrize("field, bad", [
        ("hazard", math.nan), ("hazard", math.inf),
        ("horizon", math.nan), ("horizon", math.inf),
    ])
    def test_rejects_non_finite_hazard_and_horizon(self, field, bad):
        # a NaN hazard passes "hazard < 0" and the solver's "hazard > 0"
        # tests alike, and would be solved as zero hazard
        prob = merton_as_generic(make_params())
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            dataclasses.replace(prob, **{field: bad})


class TestFCurve:
    def test_accepts_valid_curve(self):
        c = FCurve(times=np.array([0.0, 0.5, 1.0]), values=np.array([0.2, 0.1, 0.0]))
        assert c.values[-1] == 0.0
        with pytest.raises(ValueError):
            c.values[0] = 5.0  # read-only backing array

    def test_freezes_a_copy_not_the_callers_arrays(self):
        times, values = np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.1, 0.0])
        c = FCurve(times=times, values=values)
        times[1], values[0] = 0.25, 5.0   # still writeable
        np.testing.assert_array_equal(c.times, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(c.values, [0.2, 0.1, 0.0])

    @pytest.mark.parametrize("times,values", [
        ([0.0, 0.5, 0.5], [0.2, 0.1, 0.0]),      # not strictly increasing
        ([0.0, 1.0], [0.2, 0.1]),                # nonzero terminal value
        ([0.0, 0.5, 1.0], [0.2, 0.0]),           # length mismatch
        ([1.0], [0.0]),                          # too short
    ])
    def test_rejects_invalid(self, times, values):
        with pytest.raises(ValueError):
            FCurve(times=np.asarray(times, float), values=np.asarray(values, float))
