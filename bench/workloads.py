"""Benchmark inputs, the hand-built generic problem, oracles and output checks.

Every input is a pure function of the workload seed. The seed moves only
random or coefficient inputs (``mc.seed``, the generic problem's
coefficients); grid sizes, control counts and path counts are constants
here, so the work per run does not depend on the seed.

The program never sees the seed itself: it receives the generated config
and, for ``hjb-generic``, the coefficients of the problem to solve.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

WORKLOADS = ("verify", "hjb-generic", "mc-sweep")

# acceptance point of the defaultable-stock market (tests/test_acceptance.py)
ACCEPT_MARKET = {"mu": 0.08, "sigma": 0.2, "r": 0.02, "h": 0.02,
                 "horizon_T": 1.0, "w0": 1.0}

SWEEP_PATHS = 2_000_000

# hjb-generic: sizes fixed, coefficients drawn uniformly from this box; the
# centre is sigma(t) = 0.2 + 0.1 t before the switch and a second controlled
# market (mu2 = 0.05, sigma2 = 0.25) after it
GENERIC_GRID = {"n_x": 201, "n_t": 2000, "control_step": 0.025}
GENERIC_BOX = {
    "mu": (0.075, 0.085),
    "sigma0": (0.19, 0.21),
    "sigma1": (0.09, 0.11),
    "r": (0.018, 0.022),
    "h": (0.015, 0.025),
    "mu2": (0.045, 0.055),
    "sigma2": (0.24, 0.26),
}

# family-wise bound for the 61 sweep rows: the two-sided Bonferroni point
# for a 0.27 % false-alarm rate over all rows together, the same rate as
# the single 3-sigma mc_vs_exact gate of `verify`
SWEEP_Z_BOUND = 4.08
# rows with (near) zero variance, such as pi = 0, differ from the oracle
# only by rounding in the terminal-law arithmetic
ROUNDING_ALLOWANCE = 1e-12

# coverage gate of the traced run: the dominant layer's outermost spans
# must account for this share of run_s
COVERAGE_MIN = 0.95
DOMINANT_LAYER = {"verify": "hjb", "hjb-generic": "hjb", "mc-sweep": "mc"}


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one run; the same seed gives the same dict."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if workload == "verify":
        return {"config": {"market": dict(ACCEPT_MARKET), "mc": {"seed": seed}}}
    if workload == "mc-sweep":
        return {"config": {"market": dict(ACCEPT_MARKET),
                           "mc": {"n_paths": SWEEP_PATHS, "seed": seed}}}
    if workload == "hjb-generic":
        rng = random.Random(seed)
        coeffs = {k: rng.uniform(lo, hi) for k, (lo, hi) in GENERIC_BOX.items()}
        market = dict(ACCEPT_MARKET, mu=coeffs["mu"], sigma=coeffs["sigma0"],
                      r=coeffs["r"], h=coeffs["h"])
        return {"config": {"market": market, "grid": dict(GENERIC_GRID)},
                "coeffs": coeffs}
    raise ValueError(f"unknown workload {workload!r}")


def dump_inputs(inputs: dict) -> bytes:
    return (json.dumps(inputs, indent=2, sort_keys=True) + "\n").encode()


def generic_problem(coeffs: dict, horizon: float, control_bounds):
    """Two controlled log-wealth markets joined by an absorbing default.

    Before the switch the volatility grows linearly in time; after it a
    second market with its own drift and volatility is still traded, so the
    post-switch minimisation over controls is real work. Default shifts
    log-wealth by -u. Objective: minimise -x_T (maximise log wealth).
    """
    from regimehjb import RegimeControlProblem

    mu, r, h = coeffs["mu"], coeffs["r"], coeffs["h"]
    s0, s1 = coeffs["sigma0"], coeffs["sigma1"]
    mu2, s2 = coeffs["mu2"], coeffs["sigma2"]

    def drift_pre(t, x, u):
        s = s0 + s1 * t
        return r + u * (mu - r) - 0.5 * u * u * s * s

    def vol_pre(t, x, u):
        return u * (s0 + s1 * t)

    def drift_post(t, x, u):
        return r + u * (mu2 - r) - 0.5 * u * u * s2 * s2

    def vol_post(t, x, u):
        return u * s2

    return RegimeControlProblem(
        drift_pre=drift_pre, vol_pre=vol_pre,
        drift_post=drift_post, vol_post=vol_post,
        hazard=h, jump_map=lambda t, x, u: x - u,
        running_cost=lambda t, x, u: 0.0, terminal_cost=lambda x: -x,
        control_bounds=tuple(control_bounds), horizon=horizon)


# --------------------------------------------------------------------------
# checks on the generated inputs (made once per run, before any child)
# --------------------------------------------------------------------------

def input_checks(workload: str, inputs: dict) -> list:
    """(name, pass, detail) checks on the generated inputs themselves."""
    if workload != "hjb-generic":
        return []
    from regimehjb import cli
    import numpy as np

    cfg = cli.resolve_config(inputs["config"])
    grid = cli.build_grid(cfg)
    T = cfg["market"]["horizon_T"]
    problem = generic_problem(inputs["coeffs"], T, cfg["control_bounds"])
    # validate_grid_for samples the CFL bound at three times only; the
    # explicit scheme evaluates coefficients at every step time, so check
    # them all
    x_col = grid.x_nodes[:, None]
    u_row = grid.control_nodes[None, :]
    dt = grid.dt(T)
    worst = 0.0
    for t in grid.times(T):
        for vol in (problem.vol_pre, problem.vol_post):
            v = np.asarray(vol(t, x_col, u_row), dtype=float)
            worst = max(worst, float(np.max(v * v)) * dt / grid.dx ** 2)
    c = inputs["coeffs"]
    lo, hi = cfg["control_bounds"]
    pre_u = [(c["mu"] - c["r"] - c["h"]) / (c["sigma0"] + c["sigma1"] * t) ** 2
             for t in (0.0, T)]
    post_u = (c["mu2"] - c["r"]) / c["sigma2"] ** 2
    interior = all(lo < u < hi for u in pre_u + [post_u])
    return [("cfl_every_step", worst <= 1.0, f"max dt*vol^2/dx^2 = {worst:.4f}"),
            ("oracle_optimum_interior", interior,
             f"u* pre {pre_u[0]:.3f}..{pre_u[1]:.3f}, post {post_u:.3f} in ({lo}, {hi})")]


# --------------------------------------------------------------------------
# oracles and checks on the program's outputs
# --------------------------------------------------------------------------

def merton_offsets(market: dict):
    """(f(0), g(0)) for the default-config market, derived independently.

    Pre-switch value -v = x + f(t) with f(0) = r T + K (1 - e^{-hT}) / h,
    K = (mu - r - h)^2 / (2 sigma^2); post-switch (all cash) g(0) = r T.
    """
    mu, s, r, h, T = (market[k] for k in ("mu", "sigma", "r", "h", "horizon_T"))
    k = (mu - r - h) ** 2 / (2.0 * s * s)
    return r * T + k * (-math.expm1(-h * T)) / h, r * T


def generic_offsets(coeffs: dict, horizon: float):
    """(f(0), g(0)) of the generic problem from an independent ODE solve.

    With g(t) = (r + (mu2 - r)^2 / (2 sigma2^2)) (T - t) the post-switch
    offset and K(t) = (mu - r - h)^2 / (2 sigma(t)^2), the pre-switch offset
    solves f' = h f - r - K(t) - h g(t), f(T) = 0.
    """
    from scipy.integrate import solve_ivp

    mu, r, h = coeffs["mu"], coeffs["r"], coeffs["h"]
    s0, s1 = coeffs["sigma0"], coeffs["sigma1"]
    rate2 = r + (coeffs["mu2"] - r) ** 2 / (2.0 * coeffs["sigma2"] ** 2)

    def rhs(t, f):
        k = (mu - r - h) ** 2 / (2.0 * (s0 + s1 * t) ** 2)
        return h * f - r - k - h * rate2 * (horizon - t)

    sol = solve_ivp(rhs, (horizon, 0.0), [0.0], rtol=1e-11, atol=1e-13)
    return float(sol.y[0, -1]), rate2 * horizon


def surface_errors(rows: dict, cfg: dict, offsets):
    """Interior max errors of the t = 0 rows against -x - offset."""
    import numpy as np
    from regimehjb import cli

    grid = cli.build_grid(cfg)
    mask = cli.interior_nodes_mask(grid, cli.build_loss(cfg), grid.control_nodes)
    x = np.asarray(rows["x"])[mask]
    return tuple(float(np.max(np.abs(-np.asarray(rows[key])[mask] - x - offset)))
                 for key, offset in zip(("v_pre0", "v_after0"), offsets))


def verify_checks(report_text: str):
    """Every gate of a verify report, plus the MC z-score (health)."""
    report = json.loads(report_text)
    checks = [(f"gate:{g['name']}", bool(g["pass"]),
               f"deviation {g['deviation']:.3e} tolerance {g['tolerance']:.3e}")
              for g in report["gates"]]
    z = abs(report["value_mc"] - report["value_exact"]) / report["mc_stderr"]
    return checks, z


def sweep_checks(csv_text: str):
    """Each CSV row's MC mean against the exact oracle, plus max |z| (health)."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    checks, z_max = [], 0.0
    for row in rows:
        mean, se, exact = (float(row[k]) for k in ("mc_mean", "mc_stderr", "exact_value"))
        dev, rounding = abs(mean - exact), ROUNDING_ALLOWANCE * max(1.0, abs(exact))
        if se > rounding:
            z_max = max(z_max, dev / se)
        ok = dev <= SWEEP_Z_BOUND * se + rounding
        checks.append((f"row:pi={row['pi']}", ok, f"|mean-exact| {dev:.3e} se {se:.3e}"))
    checks.append(("row_count", len(rows) == 61, f"{len(rows)} rows"))
    return checks, z_max
