"""Batch command-line front door.

Reads a strict JSON problem configuration, dispatches to the analytic, ODE,
finite-difference and Monte Carlo engines, and writes machine-readable
reports: JSON for summaries, CSV for tables. Every report embeds the fully
resolved configuration so a run can be reproduced bit-for-bit from its own
output. A flag (--seed, --variant) is judged as the key it sets. verify
calls the same per-route helpers as the single-route commands. Every command
judges the whole config before any work, including the keys only another
command reads (sweep: its output path too). Exit codes: 0 all gates pass,
1 gate failure, 2 configuration error (wherever it is found: the schema, an
integer too large for a float, a non-finite number, state grid or control
node, a CFL violation, control nodes outside the bounds, a linear-loss
weight pi >= 1, a step size that gives no usable node count, an RK4 step
past its stability limit, a log(w0) outside [x_min, x_max], a state grid
with no interior window, an array too large to allocate, an output path that
cannot be written), 3 numerical error (a non-finite quantity met during a
solve), 4 internal error (a traceback, to be reported as a bug; a computed
report number that is not finite is one, and it writes no report).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

import numpy as np

from .closedform import (FCoefficientVariant, expected_log_utility_exact,
                         f_closed_form, j_after, optimal_weight)
from .hjb import GridSpec, solve_system, validate_grid_for
from .model import (DEFAULT_CONTROL_BOUNDS, ConfigError, DefaultLossModel,
                    MarketParams, NumericalError, merton_as_generic)
from .montecarlo import McConfig, estimate, sweep
from .odesolve import OdeConfig, solve_f_backward

EXIT_OK = 0
EXIT_GATE_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

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


# --------------------------------------------------------------------------
# strict config loading
# --------------------------------------------------------------------------

_REQUIRED = object()    # default of a key that must be given
_ABSENT = object()      # default of a key that stays out of the resolved config

# (section, key, kind, default) in check order; section None is the top
# level, a tuple kind lists the allowed values, and a callable default is
# computed from the keys resolved before it
_SCHEMA = (
    *(("market", key, "number", _REQUIRED)
      for key in ("mu", "sigma", "r", "h", "horizon_T", "w0")),
    (None, "loss_mode", ("exponential", "linear"), "exponential"),
    (None, "variant", ("paper", "derived"), "derived"),
    (None, "control_bounds", "bounds", lambda c: list(DEFAULT_CONTROL_BOUNDS)),
    ("ode", "step", "number", 1e-4),
    ("ode", "method", ("rk4",), "rk4"),
    ("grid", "x_min", "number", lambda c: math.log(c["market"]["w0"]) - 4.0),
    ("grid", "x_max", "number", lambda c: math.log(c["market"]["w0"]) + 4.0),
    ("grid", "n_x", "integer", 401),
    ("grid", "n_t", "integer", 4000),
    ("grid", "control_nodes", "numbers", _ABSENT),
    ("grid", "control_step", "number",
     lambda c: _ABSENT if "control_nodes" in c["grid"] else 0.05),
    ("mc", "n_paths", "integer", 100_000),
    ("mc", "seed", "integer", 12345),
    ("mc", "antithetic", "bool", False),
    (None, "report_times", "numbers",
     lambda c: [i * c["market"]["horizon_T"] / 10.0 for i in range(10)]
     + [c["market"]["horizon_T"]]),
    (None, "pi", "number or null", None),
    ("sweep", "pi_lo", "number", lambda c: c["control_bounds"][0]),
    ("sweep", "pi_hi", "number", lambda c: c["control_bounds"][1]),
    ("sweep", "pi_step", "number", 0.05),
    (None, "output_path", "string or null", None),
)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# kind -> (test of a given value, what a value that fails it must be)
_KINDS = {
    "number": (_is_number, "a number"),
    "integer": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "numbers": (lambda v: isinstance(v, list) and v and all(map(_is_number, v)),
                "a non-empty list of numbers"),
    "bounds": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
               "a two-number list [u_lo, u_hi]"),
    "number or null": (lambda v: v is None or _is_number(v), "a number or null"),
    "string or null": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def _check_object(obj, where: str, keys) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _walk(raw: dict, cfg: dict, overrides):
    """Resolve the rows of _SCHEMA into cfg in order, yielding each key once its
    value (overrides["section.key"] or, top level, overrides["key"], else the
    given value or the default) is in; a section is checked at its first row."""
    for section, key, kind, default in _SCHEMA:
        if section is not None and section not in cfg:
            _check_object(raw.get(section, {}), section,
                     [row[1] for row in _SCHEMA if row[0] == section])
            cfg[section] = {}
        given, out = (raw, cfg) if section is None else (raw.get(section, {}), cfg[section])
        value = overrides.get(f"{section}.{key}" if section else key, given.get(key, _ABSENT))
        if value is not _ABSENT:
            test, what = _KINDS.get(kind) or (kind.__contains__, f"one of {sorted(kind)}")
            name = f"{section or 'config'}.{key}" if section or kind not in _KINDS else key
            if not test(value):
                raise ConfigError(f"{name} must be {what}")
            if kind != "integer":      # every other number resolves to a float
                try:
                    value = ([float(v) for v in value] if isinstance(value, list)
                             else float(value) if _is_number(value) else value)
                except OverflowError:
                    raise ConfigError(f"{name} has an integer too large for a float") from None
            if kind in ("number", "number or null") and not (value is None
                                                              or math.isfinite(value)):
                raise ConfigError(f"{name} must be {what.replace('a ', 'a finite ', 1)}")
            out[key] = value
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in {section}" if section in raw
                              else f"missing required section '{section}'")
        else:
            value = default(cfg) if callable(default) else default
            if value is not _ABSENT:
                out[key] = value
        yield key


def resolve_config(raw: dict, overrides=None) -> dict:
    """Validate a raw config dict and its overrides (see _walk); materialize every default.

    The result is itself a valid input config; reports embed it so any run
    can be reproduced from its own output. The rules that tie keys together
    run as soon as the walk has resolved the keys they read, and every rule
    runs for every command, whichever command reads the key.
    """
    _check_object(raw, "config", {row[0] or row[1] for row in _SCHEMA})
    cfg = {}
    for key in _walk(raw, cfg, overrides or {}):
        if key == "w0":
            market = _built("market parameters", MarketParams, **cfg["market"])
        elif key == "control_bounds":     # the problem judges the bounds, the loss u_hi
            problem = merton_as_generic(market, build_loss(cfg), tuple(cfg["control_bounds"]))
        elif key == "n_t" and {"control_nodes", "control_step"} <= raw.get("grid", {}).keys():
            raise ConfigError("give grid.control_nodes or grid.control_step, not both")
        elif key == "control_step" and cfg["grid"].get("control_step", 1.0) <= 0.0:
            raise ConfigError("grid.control_step must be positive")
        elif key == "pi" and cfg["pi"] is not None:
            build_loss(cfg).log_wealth_drop(cfg["pi"])      # linear: pi < 1
        elif key == "report_times" and not all(
                0.0 <= t <= cfg["market"]["horizon_T"] for t in cfg["report_times"]):
            raise ConfigError("report_times must lie inside [0, horizon_T]")
        elif key == "pi_step":
            s = cfg["sweep"]
            if s["pi_step"] <= 0.0 or s["pi_lo"] >= s["pi_hi"]:
                raise ConfigError("sweep needs pi_lo < pi_hi and a positive pi_step")
            # pi_lo and pi_hi are finite unless they default to an infinite control
            # bound, which the other commands accept with explicit control nodes
            if math.isfinite(s["pi_lo"]) and math.isfinite(s["pi_hi"]):
                _nodes(s["pi_lo"], s["pi_hi"], s["pi_step"], _sweep_where(s))
            build_loss(cfg).log_wealth_drop(s["pi_hi"])     # linear: pi < 1
    # the dataclasses and the node counts check the rest, so every command fails fast
    grid, _, mc = build_grid(cfg), build_ode(cfg, market), build_mc(cfg)
    validate_grid_for(problem, grid)
    for where, count in (("grid.n_x * (grid.n_t + 1)", grid.n_x * (grid.n_t + 1)),
                         ("grid.n_x * control nodes", grid.n_x * grid.control_nodes.size)):
        if count > _MAX_VALUES:
            raise ConfigError(f"{where} = {count} values do not fit one array")
    if mc.n_paths > _MAX_VALUES:    # no array holds a value per path; the cap stays
        raise ConfigError(f"mc.n_paths = {mc.n_paths} is above the path cap {_MAX_VALUES}")
    x0 = math.log(cfg["market"]["w0"])
    if not grid.x_min <= x0 <= grid.x_max:
        raise ConfigError(f"log(market.w0) = {x0!r} lies outside [grid.x_min, grid.x_max] "
                          f"= [{grid.x_min!r}, {grid.x_max!r}]")
    interior_nodes_mask(grid, build_loss(cfg), grid.control_nodes)  # builds x_nodes: after caps
    return cfg


def load_config(path: str, overrides=None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:      # bytes that are not UTF-8, an over-long integer
        raise ConfigError(str(exc)) from exc
    return resolve_config(raw, overrides)


# --------------------------------------------------------------------------
# builders from a resolved config
# --------------------------------------------------------------------------

def _built(what: str, cls, **fields):
    """cls(**fields), with the ValueError it raises reported as a config fault."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


# float64 values one numpy array can hold: its byte count must fit np.intp
_MAX_VALUES = np.iinfo(np.intp).max // 8


def _intervals(width: float, step: float, where: str) -> float:
    """width / step, a config fault named by `where` unless finite with nodes that fit."""
    intervals = width / step
    if not (math.isfinite(intervals) and intervals + 1 <= _MAX_VALUES):
        raise ConfigError(f"{where} gives {intervals!r} intervals")
    return intervals


def _sweep_where(s: dict) -> str:
    """How a fault of the sweep section's node count names its keys."""
    return (f"sweep.pi_step = {s['pi_step']!r} "
            f"over [pi_lo, pi_hi] = [{s['pi_lo']!r}, {s['pi_hi']!r}]")


def _nodes(lo: float, hi: float, step: float, where: str) -> np.ndarray:
    """round((hi - lo) / step) + 1 evenly spaced nodes from lo to hi, strictly ascending."""
    nodes = np.linspace(lo, hi, round(_intervals(hi - lo, step, where)) + 1)
    if not np.all(nodes[1:] > nodes[:-1]):
        raise ConfigError(f"{where} gives nodes that are not strictly ascending")
    return nodes


def build_market(cfg: dict) -> MarketParams:
    return MarketParams(**cfg["market"])


def build_loss(cfg: dict) -> DefaultLossModel:
    return DefaultLossModel(cfg["loss_mode"])


def build_variant(cfg: dict) -> FCoefficientVariant:
    return FCoefficientVariant(cfg["variant"])


def build_ode(cfg: dict, market: MarketParams) -> OdeConfig:
    ode = _built("ode section", OdeConfig, step=cfg["ode"]["step"])  # refuses a step <= 0
    step, horizon = ode.step, market.horizon_T
    _intervals(horizon, step, f"ode.step = {step!r} over horizon_T = {horizon!r}")
    ode.stable_step(market)      # RK4 past its stability limit names ode.step
    return ode


def build_grid(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    if "control_nodes" in g:
        nodes = np.asarray(g["control_nodes"], dtype=float)
    else:
        step, bounds = g["control_step"], cfg["control_bounds"]
        nodes = _nodes(*bounds, step,
                       f"grid.control_step = {step!r} over control_bounds {bounds}")
    return _built("grid section", GridSpec, x_min=g["x_min"], x_max=g["x_max"],
                  n_x=g["n_x"], n_t=g["n_t"], control_nodes=nodes)


def build_mc(cfg: dict) -> McConfig:
    return _built("mc section", McConfig, **cfg["mc"])


def interior_nodes_mask(grid: GridSpec, loss: DefaultLossModel,
                        control_nodes: np.ndarray) -> np.ndarray:
    """Window of nodes unaffected by clamped jump targets; none left is a config fault."""
    margin = float(np.max(np.abs(loss.log_wealth_drop(control_nodes)))) + INTERIOR_BUFFER_LO
    mask = grid.interior_mask(margin, INTERIOR_BUFFER_HI)
    if not mask.any():
        raise ConfigError(f"no node of [x_min, x_max] lies {margin:.6g} above x_min "
                          f"and {INTERIOR_BUFFER_HI} below x_max")
    return mask


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
    curve = solve_f_backward(params, variant, build_ode(cfg, params))
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
    offsets -v_pre - x (each node's estimate of f(0)) on the interior window
    and at that node, so a boundary-polluted x0 shows in the gate."""
    problem = merton_as_generic(params, loss, tuple(cfg["control_bounds"]))
    grid = build_grid(cfg)
    mask = interior_nodes_mask(grid, loss, grid.control_nodes)   # before the solve
    surface = solve_system(problem, grid)
    x = grid.x_nodes
    j0 = int(np.argmin(np.abs(x - math.log(params.w0))))
    mask[j0] = True
    summary = {"f0_hjb": float(-surface.v_pre[0, j0] - x[j0]), "x0": float(x[j0]),
               "policy_at_x0": float(surface.policy[0, j0])}
    return summary, -surface.v_pre[0, mask] - x[mask]


def cmd_hjb_solve(cfg: dict) -> dict:
    summary, offsets = _hjb_route(cfg, build_market(cfg), build_loss(cfg))
    return {
        "config": cfg,
        **summary,
        "interior_offset_spread": float(np.max(offsets) - np.min(offsets)),
    }


def _mc_route(cfg: dict, params: MarketParams, loss: DefaultLossModel, pi: float):
    """Monte Carlo estimate at pi, the exact expected log wealth, and their
    agreement gate (three standard errors)."""
    est = estimate(params, pi, loss, build_mc(cfg))
    exact = expected_log_utility_exact(params, pi, loss)
    return est, exact, _gate("mc_vs_exact", abs(est.mean - exact), 3.0 * est.std_error)


def cmd_mc_estimate(cfg: dict) -> dict:
    params = build_market(cfg)
    loss = build_loss(cfg)
    pi = cfg["pi"] if cfg["pi"] is not None else optimal_weight(params)
    est, exact, _ = _mc_route(cfg, params, loss, pi)
    return {
        "config": cfg,
        "pi": pi,
        "mc_mean": est.mean,
        "mc_stderr": est.std_error,
        "n_paths": est.n_paths,
        "seed": est.seed,
        "exact_value": exact,
    }


def cmd_sweep(cfg: dict) -> dict:
    params = build_market(cfg)
    loss = build_loss(cfg)
    s = cfg["sweep"]
    pi_grid = _nodes(s["pi_lo"], s["pi_hi"], s["pi_step"], _sweep_where(s))
    points, mc_idx = sweep(params, loss, pi_grid, build_mc(cfg))
    exact = np.asarray(expected_log_utility_exact(params, pi_grid, loss))
    exact_idx = int(np.argmax(exact))
    rows = [{"pi": pi, "mc_mean": est.mean, "mc_stderr": est.std_error,
             "exact_value": float(exact[i]),
             "is_mc_argmax": i == mc_idx,
             "is_analytic_argmax": i == exact_idx}
            for i, (pi, est) in enumerate(points)]
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
            # four float columns, then the two argmax flags as 0/1
            writer.writerow([repr(float(row[c])) for c in columns[:4]]
                            + [str(int(row[c])) for c in columns[4:]])


def _gate(name: str, deviation: float, tolerance: float) -> dict:
    return {"name": name, "deviation": float(deviation),
            "tolerance": float(tolerance), "pass": bool(deviation <= tolerance)}


def cmd_verify(cfg: dict) -> dict:
    """Run all four routes on one parameter set and gate their agreement."""
    params = build_market(cfg)
    loss = build_loss(cfg)
    variant = build_variant(cfg)
    pi_star = optimal_weight(params)
    lo, hi = cfg["control_bounds"]
    argmax_grid = _nodes(lo, hi, ARGMAX_GRID_STEP,     # before the solves: it can fail
                         f"the oracle grid over control_bounds [{lo!r}, {hi!r}]")

    # the scalar form: the array form on the RK4 times uses np.expm1, which
    # can differ in the last bit
    f0_closed = f_closed_form(params, 0.0, variant)
    curve, _, ode_gate = _ode_route(cfg, params, variant)
    hjb, offsets = _hjb_route(cfg, params, loss)

    oracle_vals = np.asarray(expected_log_utility_exact(params, argmax_grid, loss))
    argmax_dev = abs(float(argmax_grid[int(np.argmax(oracle_vals))]) - pi_star)

    est, value_exact, mc_gate = _mc_route(cfg, params, loss, pi_star)

    exact_dev = abs(f0_closed - (value_exact - math.log(params.w0)))
    gates = [
        _gate("oracle_argmax", argmax_dev, ARGMAX_GRID_STEP + 1e-12),
        ode_gate,
        _gate("hjb_vs_closed", np.max(np.abs(offsets - f0_closed)), TOL_HJB_VS_CLOSED),
        _gate("exact_oracle_vs_closed", exact_dev, TOL_EXACT_VS_CLOSED),
        mc_gate,
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
    """The report as JSON. A computed number that is not finite is a bug
    (ValueError), never a NaN or Infinity token; only the config echo may hold
    one, an infinite control bound that the schema accepts."""
    json.dumps({k: v for k, v in report.items() if k != "config"}, allow_nan=False)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


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
        p.add_argument("--variant", default=None,
                       help="override the f(t) coefficient variant (paper or derived)")
    args = parser.parse_args(argv)

    # a warning prints as one line naming no file of the program; the filters
    # still apply (-W error raises), and a caller that records still records
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *at: f"{category.__name__}: {message}\n"
    try:
        flags = {"mc.seed": args.seed, "variant": args.variant}
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        out = args.out or cfg["output_path"]
        if args.command == "sweep" and not out:     # before the sweep draws
            raise ConfigError("sweep needs --out or output_path for its CSV")
        report = _COMMANDS[args.command](cfg)
        table = report if args.command == "sweep" else None
        if table is not None:
            # the rows go to the CSV, the rest of the report to stdout
            report = {k: v for k, v in table.items() if k != "rows"}
        text = render_report(report)    # before any file is opened: it can fail
        try:
            if table is not None:
                write_sweep_csv(table, out)
            elif out:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc
        if table is not None or not out:
            sys.stdout.write(text)
    except (ConfigError, MemoryError) as exc:   # MemoryError: a size too large to allocate
        print(f"configuration error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:
        import traceback            # numpy does not load it; only this path needs it
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        warnings.formatwarning = format_warning
    return EXIT_OK if all(g["pass"] for g in report.get("gates", [])) else EXIT_GATE_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
