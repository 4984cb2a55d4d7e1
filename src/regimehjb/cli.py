"""Batch command-line front door.

Reads a strict JSON problem configuration, dispatches to the analytic,
ODE, finite-difference and Monte Carlo engines, and writes machine-readable
reports: JSON for summaries, CSV for tables. Every report embeds the fully
resolved configuration so a run can be reproduced bit-for-bit from its own
output. verify calls the same per-route helpers as the single-route
commands. Exit codes: 0 all gates pass, 1 gate failure, 2 configuration
error, 3 numerical error (a non-finite quantity met during a solve).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Optional

import numpy as np

from .closedform import (FCoefficientVariant, expected_log_utility_exact,
                         f_closed_form, j_after, optimal_weight)
from .hjb import GridSpec, NumericalError, solve_system
from .model import (DEFAULT_CONTROL_BOUNDS, DefaultLossModel, MarketParams,
                    merton_as_generic)
from .montecarlo import McConfig, estimate, sweep
from .odesolve import OdeConfig, solve_f_backward

EXIT_OK = 0
EXIT_GATE_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# pinned verification tolerances (see the acceptance suite)
TOL_ODE_VS_CLOSED = 1e-10
TOL_HJB_VS_CLOSED = 2e-2
TOL_EXACT_VS_CLOSED = 1e-12
ARGMAX_GRID_STEP = 1e-3

# interior window for grid-vs-closed-form comparisons: clamped jump targets
# pollute the solution within one maximal jump of the lower boundary, and
# the diffusion smears that layer a bit further inward
INTERIOR_BUFFER_LO = 1.5
INTERIOR_BUFFER_HI = 0.5


class ConfigError(Exception):
    """Configuration file failed strict validation."""


# --------------------------------------------------------------------------
# strict config loading
# --------------------------------------------------------------------------

_MARKET_KEYS = ("mu", "sigma", "r", "h", "horizon_T", "w0")


def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return obj


def _reject_unknown(d, allowed, where):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(d, key, where, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    return float(v)


def _integer(d, key, where, default=None):
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    return v


def _string_choice(d, key, where, choices, default):
    v = d.get(key, default)
    if v not in choices:
        raise ConfigError(f"{where}.{key} must be one of {sorted(choices)}")
    return v


def resolve_config(raw: dict, seed_override: Optional[int] = None,
                   variant_override: Optional[str] = None) -> dict:
    """Validate a raw config dict and materialize every default.

    The result is itself a valid input config; reports embed it so any run
    can be reproduced from its own output.
    """
    _require_mapping(raw, "config")
    _reject_unknown(raw, ("market", "loss_mode", "variant", "control_bounds",
                          "ode", "grid", "mc", "report_times", "pi", "sweep",
                          "output_path"), "config")

    if "market" not in raw:
        raise ConfigError("missing required section 'market'")
    market = _require_mapping(raw["market"], "market")
    _reject_unknown(market, _MARKET_KEYS, "market")
    market_out = {k: _number(market, k, "market", required=True) for k in _MARKET_KEYS}
    try:
        params = MarketParams(**market_out)
    except ValueError as exc:
        raise ConfigError(f"invalid market parameters: {exc}") from exc

    loss_mode = _string_choice(raw, "loss_mode", "config",
                               ("exponential", "linear"), "exponential")
    variant = _string_choice(raw, "variant", "config", ("paper", "derived"), "derived")
    if variant_override is not None:
        if variant_override not in ("paper", "derived"):
            raise ConfigError("variant must be 'paper' or 'derived'")
        variant = variant_override

    bounds = raw.get("control_bounds", list(DEFAULT_CONTROL_BOUNDS))
    if (not isinstance(bounds, list) or len(bounds) != 2
            or any(isinstance(b, bool) or not isinstance(b, (int, float)) for b in bounds)):
        raise ConfigError("control_bounds must be a two-number list [u_lo, u_hi]")
    bounds = [float(bounds[0]), float(bounds[1])]
    if not bounds[0] < bounds[1]:
        raise ConfigError("control_bounds must satisfy u_lo < u_hi")
    if loss_mode == "linear" and bounds[1] >= 1.0:
        raise ConfigError("linear loss requires u_hi < 1")

    ode = _require_mapping(raw.get("ode", {}), "ode")
    _reject_unknown(ode, ("step", "method"), "ode")
    ode_out = {"step": _number(ode, "step", "ode", default=1e-4),
               "method": _string_choice(ode, "method", "ode", ("rk4",), "rk4")}
    if ode_out["step"] <= 0.0:
        raise ConfigError("ode.step must be positive")

    grid = _require_mapping(raw.get("grid", {}), "grid")
    _reject_unknown(grid, ("x_min", "x_max", "n_x", "n_t",
                           "control_nodes", "control_step"), "grid")
    x0 = math.log(params.w0)
    grid_out = {
        "x_min": _number(grid, "x_min", "grid", default=x0 - 4.0),
        "x_max": _number(grid, "x_max", "grid", default=x0 + 4.0),
        "n_x": _integer(grid, "n_x", "grid", default=401),
        "n_t": _integer(grid, "n_t", "grid", default=4000),
    }
    if "control_nodes" in grid and "control_step" in grid:
        raise ConfigError("give grid.control_nodes or grid.control_step, not both")
    if "control_nodes" in grid:
        nodes = grid["control_nodes"]
        if (not isinstance(nodes, list) or not nodes
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in nodes)):
            raise ConfigError("grid.control_nodes must be a non-empty list of numbers")
        grid_out["control_nodes"] = [float(v) for v in nodes]
    else:
        step = _number(grid, "control_step", "grid", default=0.05)
        if step <= 0.0:
            raise ConfigError("grid.control_step must be positive")
        grid_out["control_step"] = step

    mc = _require_mapping(raw.get("mc", {}), "mc")
    _reject_unknown(mc, ("n_paths", "seed", "antithetic"), "mc")
    mc_out = {"n_paths": _integer(mc, "n_paths", "mc", default=100_000),
              "seed": _integer(mc, "seed", "mc", default=12345),
              "antithetic": mc.get("antithetic", False)}
    if not isinstance(mc_out["antithetic"], bool):
        raise ConfigError("mc.antithetic must be a boolean")
    if seed_override is not None:
        mc_out["seed"] = seed_override

    if "report_times" in raw:
        times = raw["report_times"]
        if (not isinstance(times, list) or not times
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in times)):
            raise ConfigError("report_times must be a non-empty list of numbers")
        times = [float(v) for v in times]
        if any(not 0.0 <= t <= params.horizon_T for t in times):
            raise ConfigError("report_times must lie inside [0, horizon_T]")
    else:
        times = [i * params.horizon_T / 10.0 for i in range(10)] + [params.horizon_T]

    pi = raw.get("pi", None)
    if pi is not None:
        if isinstance(pi, bool) or not isinstance(pi, (int, float)):
            raise ConfigError("pi must be a number or null")
        pi = float(pi)

    sweep_cfg = _require_mapping(raw.get("sweep", {}), "sweep")
    _reject_unknown(sweep_cfg, ("pi_lo", "pi_hi", "pi_step"), "sweep")
    sweep_out = {"pi_lo": _number(sweep_cfg, "pi_lo", "sweep", default=bounds[0]),
                 "pi_hi": _number(sweep_cfg, "pi_hi", "sweep", default=bounds[1]),
                 "pi_step": _number(sweep_cfg, "pi_step", "sweep", default=0.05)}
    if sweep_out["pi_step"] <= 0.0 or sweep_out["pi_lo"] >= sweep_out["pi_hi"]:
        raise ConfigError("sweep needs pi_lo < pi_hi and a positive pi_step")

    output_path = raw.get("output_path", None)
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path must be a string or null")

    resolved = {
        "market": market_out,
        "loss_mode": loss_mode,
        "variant": variant,
        "control_bounds": bounds,
        "ode": ode_out,
        "grid": grid_out,
        "mc": mc_out,
        "report_times": times,
        "pi": pi,
        "sweep": sweep_out,
        "output_path": output_path,
    }
    # re-validate nested numeric invariants early so every command fails fast
    build_grid(resolved)
    build_ode(resolved)
    build_mc(resolved)
    return resolved


def load_config(path: str, seed_override=None, variant_override=None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_config(raw, seed_override, variant_override)


# --------------------------------------------------------------------------
# builders from a resolved config
# --------------------------------------------------------------------------

def build_market(cfg: dict) -> MarketParams:
    return MarketParams(**cfg["market"])


def build_loss(cfg: dict) -> DefaultLossModel:
    return DefaultLossModel(cfg["loss_mode"])


def build_variant(cfg: dict) -> FCoefficientVariant:
    return FCoefficientVariant(cfg["variant"])


def build_ode(cfg: dict) -> OdeConfig:
    try:
        return OdeConfig(step=cfg["ode"]["step"], method=cfg["ode"]["method"])
    except ValueError as exc:
        raise ConfigError(f"invalid ode section: {exc}") from exc


def build_grid(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    if "control_nodes" in g:
        nodes = np.asarray(g["control_nodes"], dtype=float)
    else:
        lo, hi = cfg["control_bounds"]
        count = int(round((hi - lo) / g["control_step"])) + 1
        nodes = np.linspace(lo, hi, count)
    try:
        return GridSpec(x_min=g["x_min"], x_max=g["x_max"], n_x=g["n_x"],
                        n_t=g["n_t"], control_nodes=nodes)
    except ValueError as exc:
        raise ConfigError(f"invalid grid section: {exc}") from exc


def build_mc(cfg: dict) -> McConfig:
    try:
        return McConfig(n_paths=cfg["mc"]["n_paths"], seed=cfg["mc"]["seed"],
                        antithetic=cfg["mc"]["antithetic"])
    except ValueError as exc:
        raise ConfigError(f"invalid mc section: {exc}") from exc


def interior_nodes_mask(grid: GridSpec, loss: DefaultLossModel,
                        control_nodes: np.ndarray) -> np.ndarray:
    """Window of nodes unaffected by boundary clamping of jump targets."""
    max_drop = float(np.max(np.abs(loss.log_wealth_drop(control_nodes))))
    return grid.interior_mask(max_drop + INTERIOR_BUFFER_LO, INTERIOR_BUFFER_HI)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_closed_form(cfg: dict) -> dict:
    params = build_market(cfg)
    pi_star = optimal_weight(params)
    times = cfg["report_times"]
    f_samples = {
        variant.value: [{"t": t, "value": f_closed_form(params, t, variant)}
                        for t in times]
        for variant in FCoefficientVariant
    }
    return {
        "config": cfg,
        "pi_star": pi_star,
        "j_after_samples": [{"t": t, "w": params.w0,
                             "value": j_after(params, params.w0, t)} for t in times],
        "f_samples": f_samples,
    }


def _ode_route(cfg: dict, params: MarketParams, variant: FCoefficientVariant):
    """RK4 curve of f, the closed form on its times, and their agreement gate."""
    curve = solve_f_backward(params, variant, build_ode(cfg))
    closed = f_closed_form(params, curve.times, variant)
    deviation = float(np.max(np.abs(curve.values - closed)))
    return curve, closed, _gate("ode_vs_closed", deviation, TOL_ODE_VS_CLOSED)


def cmd_ode_check(cfg: dict) -> dict:
    params = build_market(cfg)
    variant = build_variant(cfg)
    curve, closed, gate = _ode_route(cfg, params, variant)
    return {
        "config": cfg,
        "variant": variant.value,
        "f0_rk4": float(curve.values[0]),
        "f0_closed": float(closed[0]),
        "gates": [gate],
    }


def _hjb_route(cfg: dict, params: MarketParams, loss: DefaultLossModel):
    """Grid solve summarized at the node nearest x0 = log w0, plus the t = 0
    offsets -v_pre - x (each node's estimate of f(0)) on the interior window."""
    problem = merton_as_generic(params, loss, tuple(cfg["control_bounds"]))
    grid = build_grid(cfg)
    surface = solve_system(problem, grid)
    x = grid.x_nodes
    j0 = int(np.argmin(np.abs(x - math.log(params.w0))))
    summary = {"f0_hjb": float(-surface.v_pre[0, j0] - x[j0]), "x0": float(x[j0]),
               "policy_at_x0": float(surface.policy[0, j0])}
    mask = interior_nodes_mask(grid, loss, grid.control_nodes)
    return summary, -surface.v_pre[0, mask] - x[mask]


def cmd_hjb_solve(cfg: dict) -> dict:
    summary, offsets = _hjb_route(cfg, build_market(cfg), build_loss(cfg))
    return {
        "config": cfg,
        **summary,
        "interior_offset_spread": float(np.max(offsets) - np.min(offsets)),
    }


def cmd_mc_estimate(cfg: dict) -> dict:
    params = build_market(cfg)
    loss = build_loss(cfg)
    pi = cfg["pi"] if cfg["pi"] is not None else optimal_weight(params)
    est = estimate(params, pi, loss, build_mc(cfg))
    return {
        "config": cfg,
        "pi": pi,
        "mc_mean": est.mean,
        "mc_stderr": est.std_error,
        "n_paths": est.n_paths,
        "seed": est.seed,
        "exact_value": expected_log_utility_exact(params, pi, loss),
    }


def cmd_sweep(cfg: dict) -> dict:
    params = build_market(cfg)
    loss = build_loss(cfg)
    s = cfg["sweep"]
    count = int(round((s["pi_hi"] - s["pi_lo"]) / s["pi_step"])) + 1
    pi_grid = np.linspace(s["pi_lo"], s["pi_hi"], count)
    points, mc_idx = sweep(params, loss, pi_grid, build_mc(cfg))
    exact = np.asarray(expected_log_utility_exact(params, pi_grid, loss))
    exact_idx = int(np.argmax(exact))
    rows = []
    for i, (pi, est) in enumerate(points):
        rows.append({"pi": pi, "mc_mean": est.mean, "mc_stderr": est.std_error,
                     "exact_value": float(exact[i]),
                     "is_mc_argmax": i == mc_idx,
                     "is_analytic_argmax": i == exact_idx})
    return {
        "config": cfg,
        "mc_argmax_pi": float(pi_grid[mc_idx]),
        "analytic_argmax_pi": float(pi_grid[exact_idx]),
        "rows": rows,
    }


def write_sweep_csv(report: dict, path: str) -> None:
    columns = ("pi", "mc_mean", "mc_stderr", "exact_value",
               "is_mc_argmax", "is_analytic_argmax")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in report["rows"]:
            writer.writerow([
                repr(float(row["pi"])),
                repr(float(row["mc_mean"])),
                repr(float(row["mc_stderr"])),
                repr(float(row["exact_value"])),
                str(int(row["is_mc_argmax"])),
                str(int(row["is_analytic_argmax"])),
            ])


def _gate(name: str, deviation: float, tolerance: float) -> dict:
    return {"name": name, "deviation": float(deviation),
            "tolerance": float(tolerance), "pass": bool(deviation <= tolerance)}


def cmd_verify(cfg: dict) -> dict:
    """Run all four routes on one parameter set and gate their agreement."""
    params = build_market(cfg)
    loss = build_loss(cfg)
    variant = build_variant(cfg)
    pi_star = optimal_weight(params)

    # the scalar form: the array form on the RK4 times uses np.expm1, which
    # can differ in the last bit
    f0_closed = f_closed_form(params, 0.0, variant)
    curve, _, ode_gate = _ode_route(cfg, params, variant)
    hjb, offsets = _hjb_route(cfg, params, loss)
    value_exact = expected_log_utility_exact(params, pi_star, loss)

    lo, hi = cfg["control_bounds"]
    argmax_grid = np.arange(lo, hi + 0.5 * ARGMAX_GRID_STEP, ARGMAX_GRID_STEP)
    oracle_vals = np.asarray(expected_log_utility_exact(params, argmax_grid, loss))
    argmax_dev = abs(float(argmax_grid[int(np.argmax(oracle_vals))]) - pi_star)

    est = estimate(params, pi_star, loss, build_mc(cfg))

    exact_dev = abs(f0_closed - (value_exact - math.log(params.w0)))
    gates = [
        _gate("oracle_argmax", argmax_dev, ARGMAX_GRID_STEP + 1e-12),
        ode_gate,
        _gate("hjb_vs_closed", np.max(np.abs(offsets - f0_closed)), TOL_HJB_VS_CLOSED),
        _gate("exact_oracle_vs_closed", exact_dev, TOL_EXACT_VS_CLOSED),
        _gate("mc_vs_exact", abs(est.mean - value_exact), 3.0 * est.std_error),
    ]
    return {
        "config": cfg,
        "params": cfg["market"],
        "variant": variant.value,
        "pi_star": pi_star,
        "f0_closed": f0_closed,
        "f0_rk4": float(curve.values[0]),
        "f0_hjb": hjb["f0_hjb"],
        "value_exact": value_exact,
        "value_mc": est.mean,
        "mc_stderr": est.std_error,
        "gates": gates,
    }


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

_COMMANDS = {
    "closed-form": cmd_closed_form,
    "ode-check": cmd_ode_check,
    "hjb-solve": cmd_hjb_solve,
    "mc-estimate": cmd_mc_estimate,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = render_report(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regimehjb",
        description="closed-form / ODE / finite-difference / Monte Carlo engines "
                    "for the defaultable-asset log-utility control problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output path (JSON report; "
                       "for sweep, the CSV table)")
        p.add_argument("--seed", type=int, default=None,
                       help="override mc.seed from the config")
        p.add_argument("--variant", choices=("paper", "derived"), default=None,
                       help="override the f(t) coefficient variant")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          variant_override=args.variant)
        report = _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:   # CflViolationError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if args.command == "sweep":
        out = args.out or cfg["output_path"]
        if not out:
            print("configuration error: sweep needs --out or output_path for its CSV",
                  file=sys.stderr)
            return EXIT_CONFIG
        write_sweep_csv(report, out)
        summary = {k: v for k, v in report.items() if k != "rows"}
        sys.stdout.write(render_report(summary))
        return EXIT_OK

    _emit(report, args.out or cfg["output_path"])
    gates = report.get("gates", [])
    return EXIT_OK if all(g["pass"] for g in gates) else EXIT_GATE_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
