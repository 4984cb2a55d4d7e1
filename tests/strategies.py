"""Hypothesis strategies shared by the property tests (see conftest.py for
the derandomized profile they run under)."""

from hypothesis import strategies as st

from regimehjb.model import DefaultLossModel, MarketParams

markets = st.builds(
    MarketParams,
    mu=st.floats(-0.2, 0.4),
    sigma=st.floats(0.05, 1.0),
    r=st.floats(0.0, 0.1),
    h=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
    horizon_T=st.floats(0.1, 5.0),
    w0=st.floats(0.1, 10.0),
)
losses = st.sampled_from(list(DefaultLossModel))


@st.composite
def interior_optimum_markets(draw):
    """Markets whose optimal weight lies inside the control bounds [0, 3]:
    mu is solved from a drawn pi* = (mu - r - h) / sigma^2."""
    params = draw(markets)
    pi_star = draw(st.floats(0.01, 2.99))
    mu = params.r + params.h + pi_star * params.sigma ** 2
    return MarketParams(mu=mu, sigma=params.sigma, r=params.r, h=params.h,
                        horizon_T=params.horizon_T, w0=params.w0)


def policy(loss, frac):
    """The policy a fraction frac of the way up the loss model's range: the
    linear loss needs pi < 1, the exponential one takes any pi >= 0."""
    return frac * (0.95 if loss is DefaultLossModel.LINEAR else 3.0)
