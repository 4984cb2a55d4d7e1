import contextlib
import copy
import io
import json
import math
import mmap
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimehjb import cli, model

ACCEPT_MARKET = {"mu": 0.08, "sigma": 0.2, "r": 0.02, "h": 0.02,
                 "horizon_T": 1.0, "w0": 1.0}


def base_config(**over):
    cfg = {
        "market": dict(ACCEPT_MARKET),
        "grid": {"n_x": 101, "n_t": 500},
        "mc": {"n_paths": 20000, "seed": 2026},
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run_cli_warnings_as_errors(*args, allow=None):
    """Run the CLI in a fresh interpreter where any RuntimeWarning is an error.

    A warning whose message starts with `allow` is printed instead.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-W", "error::RuntimeWarning"]
    if allow:
        flags += ["-W", f"default:{allow}:RuntimeWarning"]
    return subprocess.run(
        [sys.executable, *flags, "-m", "regimehjb.cli", *args],
        capture_output=True, text=True, env=env, check=False)


class TestConfigLoading:
    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.resolve_config(base_config(bogus=1))

    @pytest.mark.parametrize("section,key", [
        ("market", "drift"), ("grid", "nx"), ("mc", "paths"), ("ode", "dt"),
        ("sweep", "grid"),
    ])
    def test_rejects_unknown_nested_key(self, section, key):
        cfg = base_config()
        cfg.setdefault(section, {})[key] = 1
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.resolve_config(cfg)

    def test_market_params_are_required(self):
        cfg = base_config()
        del cfg["market"]["sigma"]
        with pytest.raises(cli.ConfigError, match="sigma"):
            cli.resolve_config(cfg)

    def test_market_types_checked(self):
        cfg = base_config()
        cfg["market"]["mu"] = "fast"
        with pytest.raises(cli.ConfigError, match="must be a number"):
            cli.resolve_config(cfg)

    def test_defaults_materialized(self):
        resolved = cli.resolve_config(base_config())
        assert resolved["variant"] == "derived"
        assert resolved["loss_mode"] == "exponential"
        assert resolved["control_bounds"] == [0.0, 3.0]
        assert resolved["ode"] == {"step": 1e-4, "method": "rk4"}
        assert resolved["grid"]["x_min"] == -4.0 and resolved["grid"]["x_max"] == 4.0
        assert resolved["mc"]["antithetic"] is False

    def test_resolved_config_round_trips(self):
        resolved = cli.resolve_config(base_config())
        again = cli.resolve_config(copy.deepcopy(resolved))
        assert again == resolved

    def test_overrides(self):
        resolved = cli.resolve_config(base_config(), {"mc.seed": 7, "variant": "paper"})
        assert resolved["mc"]["seed"] == 7
        assert resolved["variant"] == "paper"

    @pytest.mark.parametrize("overrides, message", [
        ({"mc.seed": 1.5}, "mc.seed must be an integer"),
        ({"mc.seed": True}, "mc.seed must be an integer"),
        ({"variant": "neither"}, "config.variant must be one of ['derived', 'paper']"),
    ])
    def test_overrides_are_judged_as_the_keys_they_set(self, overrides, message):
        with pytest.raises(cli.ConfigError) as exc:
            cli.resolve_config(base_config(), overrides)
        assert str(exc.value) == message

    def test_one_problem_per_resolve(self, monkeypatch):
        built = []
        post_init = model.RegimeControlProblem.__post_init__
        monkeypatch.setattr(model.RegimeControlProblem, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        cli.resolve_config(base_config())
        assert len(built) == 1

    def test_control_nodes_and_step_are_exclusive(self):
        cfg = base_config()
        cfg["grid"]["control_nodes"] = [0.0, 1.0]
        cfg["grid"]["control_step"] = 0.1
        with pytest.raises(cli.ConfigError, match="not both"):
            cli.resolve_config(cfg)

    def test_linear_loss_needs_sub_unit_bounds(self):
        # the loss model's own rule and message, as for a config's pi
        cfg = base_config(loss_mode="linear")
        with pytest.raises(cli.ConfigError) as err:
            cli.resolve_config(cfg)
        assert str(err.value) == LINEAR_LOSS_PI
        cfg["control_bounds"] = [0.0, 0.9]
        cli.resolve_config(cfg)


class TestClosedFormCommand:
    def test_no_hazard_weight(self):
        cfg = base_config()
        cfg["market"]["h"] = 0.0
        report = cli.cmd_closed_form(cli.resolve_config(cfg))
        m = cfg["market"]
        assert report["pi_star"] == (m["mu"] - m["r"]) / m["sigma"] ** 2

    def test_zero_excess_drift_weight(self):
        cfg = base_config()
        cfg["market"].update(mu=0.05, r=0.025, h=0.025)
        report = cli.cmd_closed_form(cli.resolve_config(cfg))
        assert report["pi_star"] == 0.0

    def test_acceptance_weight_and_samples(self):
        report = cli.cmd_closed_form(cli.resolve_config(base_config()))
        assert report["pi_star"] == pytest.approx(1.0, abs=1e-14)
        assert len(report["j_after_samples"]) == 11
        terminal = report["f_samples"]["derived"][-1]
        assert terminal["t"] == 1.0 and terminal["value"] == 0.0


class TestCommandLine:
    def test_ode_check_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert cli.main(["ode-check", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gates"][0]["pass"] is True

    def test_verify_all_gates_pass(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {g["name"] for g in report["gates"]} == {
            "oracle_argmax", "ode_vs_closed", "hjb_vs_closed",
            "exact_oracle_vs_closed", "mc_vs_exact"}
        assert all(g["pass"] for g in report["gates"])
        for key in ("params", "variant", "pi_star", "f0_closed", "f0_rk4",
                    "f0_hjb", "value_exact", "value_mc", "mc_stderr", "config"):
            assert key in report

    def test_verify_reports_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["verify", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["verify", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_from_embedded_config_reproduces_report(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1 = tmp_path / "r1.json"
        cli.main(["verify", "--config", path, "--out", str(out1)])
        embedded = json.loads(out1.read_text())["config"]
        path2 = write_config(tmp_path, embedded, name="embedded.json")
        out2 = tmp_path / "r2.json"
        cli.main(["verify", "--config", path2, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_paper_variant_fails_exact_oracle_gate(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "paper.json"
        code = cli.main(["verify", "--config", path, "--variant", "paper",
                         "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        gates = {g["name"]: g for g in report["gates"]}
        assert gates["exact_oracle_vs_closed"]["pass"] is False
        assert gates["exact_oracle_vs_closed"]["deviation"] > 1e-3
        assert gates["ode_vs_closed"]["pass"] is True  # kernel is variant-agnostic

    def test_unit_sigma_makes_variants_identical(self, tmp_path):
        cfg = base_config()
        cfg["market"]["sigma"] = 1.0
        cfg["grid"]["n_t"] = 1500  # unit sigma triples the top control's vol
        path = write_config(tmp_path, cfg)
        outs = {}
        for variant in ("paper", "derived"):
            out = tmp_path / f"{variant}.json"
            code = cli.main(["verify", "--config", path, "--variant", variant,
                             "--out", str(out)])
            assert code == 0
            outs[variant] = json.loads(out.read_text())
        for key in ("f0_closed", "f0_rk4", "f0_hjb", "value_exact", "value_mc"):
            assert outs["paper"][key] == outs["derived"][key]

    def test_seed_override_changes_mc_leg_only(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["verify", "--config", path, "--seed", "1", "--out", str(out1)])
        cli.main(["verify", "--config", path, "--seed", "2", "--out", str(out2)])
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert r1["value_mc"] != r2["value_mc"]
        assert r1["value_exact"] == r2["value_exact"]
        assert r1["f0_hjb"] == r2["f0_hjb"]

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file: [Errno 2] No such file or directory"),
        (b'{"market": ', "config is not valid JSON: Expecting value: line 1 column 12"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"mc": {"seed": 1' + b"0" * 5000 + b"}}", "Exceeds the limit (4300 digits)"),
    ], ids=["missing", "invalid-json", "not-utf-8", "over-long-integer"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        assert cli.main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"configuration error: {message}")

    @pytest.mark.parametrize("flag, value, over", [
        ("--seed", 7, {"mc": {"seed": "x"}}),
        ("--variant", "paper", {"variant": "neither"}),
    ])
    def test_a_flag_replaces_an_invalid_file_value(self, tmp_path, capsys, flag, value,
                                                   over):
        path = write_config(tmp_path, base_config(**over))
        assert cli.main(["closed-form", "--config", path, flag, str(value)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["mc"]["seed"] if flag == "--seed" else config["variant"]) == value

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "invalid mc section: seed must fit an unsigned 64-bit integer"),
        ("--variant", "neither", "config.variant must be one of ['derived', 'paper']"),
    ])
    def test_a_flag_is_judged_as_the_key_it_sets(self, tmp_path, capsys, flag, value,
                                                  message):
        path = write_config(tmp_path, base_config())
        assert cli.main(["closed-form", "--config", path, flag, value]) == 2
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")

    def test_cfl_violation_is_config_error_naming_n_t(self, tmp_path, capsys):
        cfg = base_config()
        cfg["grid"] = {"n_x": 801, "n_t": 100}
        path = write_config(tmp_path, cfg)
        for command in ("hjb-solve", "verify"):
            assert cli.main([command, "--config", path]) == 2
            err = capsys.readouterr().err
            assert "CFL" in err and "n_t" in err

    def test_numerical_error_has_its_own_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        cfg["market"]["sigma"] = 1e200     # vol^2 overflows to inf
        path = write_config(tmp_path, cfg)
        assert cli.main(["hjb-solve", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: ") and "not finite" in captured.err

    @pytest.mark.parametrize("over", [
        {"variant": "derived"},
        {"variant": "paper"},
        {"loss_mode": "linear", "control_bounds": [0.0, 0.9]},
    ])
    def test_verify_agrees_bitwise_with_single_route_commands(self, over):
        raw = base_config(**over)
        if "loss_mode" in over:
            raw["market"]["mu"] = 0.06     # pi* = 0.5, inside the linear-loss bounds
        cfg = cli.resolve_config(raw)
        verify = cli.cmd_verify(cfg)
        ode = cli.cmd_ode_check(cfg)
        hjb = cli.cmd_hjb_solve(cfg)
        mc = cli.cmd_mc_estimate(cfg)
        assert cfg["pi"] is None and mc["pi"] == verify["pi_star"]
        assert verify["f0_rk4"] == ode["f0_rk4"]
        gates = {g["name"]: g for g in verify["gates"]}
        assert gates["ode_vs_closed"] == ode["gates"][0]
        assert verify["f0_hjb"] == hjb["f0_hjb"]
        assert verify["value_exact"] == mc["exact_value"]
        assert verify["value_mc"] == mc["mc_mean"]
        assert verify["mc_stderr"] == mc["mc_stderr"]

    @pytest.mark.parametrize("command", ["mc-estimate", "sweep"])
    def test_overflowing_sigma_is_a_numerical_error(self, tmp_path, capsys, command):
        cfg = base_config()
        cfg["market"]["sigma"] = 1e200     # sigma**2 overflows a float
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("numerical error: ") and "sigma" in captured.err

    @pytest.mark.parametrize("command", ["closed-form", "ode-check", "mc-estimate", "verify"])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-160])
    def test_tiny_sigma_is_a_numerical_error_without_warnings(self, tmp_path, command,
                                                             sigma):
        # sigma**2 is 0 or a subnormal: the optimal weight and K are not finite
        cfg = base_config()
        cfg["market"]["sigma"] = sigma
        path = write_config(tmp_path, cfg)
        run = run_cli_warnings_as_errors(command, "--config", path)
        assert (run.returncode, run.stdout) == (3, "")
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("numerical error: ") and f"sigma={sigma!r}" in run.stderr

    @pytest.mark.parametrize("command", ["mc-estimate", "sweep"])
    def test_subnormal_hazard_runs_without_warnings(self, tmp_path, command):
        cfg = base_config()
        cfg["market"]["h"] = 1e-310        # -log(u) / h overflows to tau = inf
        path = write_config(tmp_path, cfg)
        run = run_cli_warnings_as_errors(command, "--config", path,
                                         "--out", str(tmp_path / "out.csv"))
        assert (run.returncode, run.stderr) == (0, "")

    @pytest.mark.parametrize("command", ["hjb-solve", "verify"])
    def test_overflowing_vol_is_a_numerical_error_without_warnings(self, tmp_path,
                                                                   command):
        cfg = base_config()
        cfg["market"]["sigma"] = 1e200     # vol^2 overflows in the first pre step
        path = write_config(tmp_path, cfg)
        run = run_cli_warnings_as_errors(command, "--config", path)
        assert (run.returncode, run.stdout) == (3, "")
        assert run.stderr == "numerical error: vol is not finite for the pre regime at t=1\n"

    @pytest.mark.parametrize("command", ["hjb-solve", "verify"])
    def test_coarse_hazard_step_breaking_the_stability_bound_exits_2_unwarned(
            self, tmp_path, command):
        cfg = base_config()
        cfg["market"]["h"] = 5000.0        # h dt = 5: the explicit update is not monotone
        cfg["grid"]["n_t"] = 1000
        path = write_config(tmp_path, cfg)
        run = run_cli_warnings_as_errors(command, "--config", path, allow="hazard*dt")
        assert (run.returncode, run.stdout) == (2, "")
        # one line and no hazard*dt warning: only a pre march that finishes warns.
        # T (|drift|/dx + vol^2/dx^2 + h) at the largest control, 3
        assert run.stderr == ("configuration error: CFL violation for the pre regime "
                              "at t=1: dt=1.000e-03 exceeds 1/(max|drift|/dx + "
                              "max(vol^2)/dx^2 + hazard)=1.977e-04; "
                              "need n_t >= 5058\n")
        cfg["grid"]["n_t"] = 5058
        path = write_config(tmp_path, cfg)
        run = run_cli_warnings_as_errors(command, "--config", path, allow="hazard*dt")
        assert "CFL" not in run.stderr and run.returncode in (0, 1)
        warned = [line for line in run.stderr.splitlines() if "Warning: " in line]
        assert len(warned) == 1 and "RuntimeWarning: hazard*dt = 0.989 > 0.1" in warned[0]
        # the warning is all of stderr, one line that names no file of the program
        assert run.stderr == warned[0] + "\n" and warned[0].startswith("RuntimeWarning: ")
        assert "hjb.py" not in run.stderr and os.sep not in run.stderr

    def test_a_recorded_warning_is_not_printed_and_the_format_is_restored(self, tmp_path,
                                                                         capsys):
        cfg = base_config()
        cfg["market"]["h"] = 30.0        # h dt = 0.15 on 41x200
        cfg["grid"] = {"n_x": 41, "n_t": 200}
        format_warning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["hjb-solve", "--config", write_config(tmp_path, cfg)]) == 0
        assert [str(w.message)[:20] for w in caught] == ["hazard*dt = 0.15 > 0"]
        assert capsys.readouterr().err == "" and warnings.formatwarning is format_warning

    def test_courant_number_above_one_is_a_cfl_violation(self, tmp_path):
        # mu = r = 10: the drift alone moves r dt / dx = 5 cells a step, and
        # a bound on the diffusion alone let this config return f0_hjb = -4.28e78
        cfg = base_config()
        cfg["market"].update(mu=10.0, r=10.0)
        cfg["grid"] = {"n_t": 100}
        cfg["control_bounds"] = [0.0, 0.05]
        path = write_config(tmp_path, cfg)
        run = run_cli_warnings_as_errors("hjb-solve", "--config", path)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith("configuration error: CFL violation for the post regime")
        assert run.stderr.endswith("need n_t >= 500\n")
        # the pre regime adds its diffusion and the hazard: 500.27 needs one step more
        cfg["grid"]["n_t"] = 500
        run = run_cli_warnings_as_errors("hjb-solve", "--config", write_config(tmp_path, cfg))
        assert run.returncode == 2 and run.stderr.endswith(
            "configuration error: CFL violation for the pre regime at t=1: dt=2.000e-03 "
            "exceeds 1/(max|drift|/dx + max(vol^2)/dx^2 + hazard)=1.999e-03; "
            "need n_t >= 501\n")
        cfg["grid"]["n_t"] = 501
        run = run_cli_warnings_as_errors("hjb-solve", "--config", write_config(tmp_path, cfg))
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(run.stdout)["f0_hjb"] == pytest.approx(10.0, abs=0.01)

    def test_single_antithetic_pair_is_a_configuration_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["mc"].update(n_paths=2, antithetic=True)
        path = write_config(tmp_path, cfg)
        assert cli.main(["mc-estimate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: invalid mc section")
        assert "two pairs" in captured.err

    def test_mc_estimate_defaults_to_optimal_weight(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert cli.main(["mc-estimate", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pi"] == pytest.approx(1.0, abs=1e-14)
        assert abs(report["mc_mean"] - report["exact_value"]) <= 4 * report["mc_stderr"]


class TestSweepCommand:
    def test_three_point_grid_makes_three_rows(self, tmp_path, capsys):
        cfg = base_config(sweep={"pi_lo": 0.5, "pi_hi": 1.5, "pi_step": 0.5})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pi,mc_mean,mc_stderr,exact_value,is_mc_argmax,is_analytic_argmax"
        assert len(lines) == 4
        summary = json.loads(capsys.readouterr().out)
        assert summary["analytic_argmax_pi"] == 1.0

    def test_argmax_flags_mark_acceptance_optimum(self, tmp_path):
        cfg = base_config()
        cfg["mc"]["n_paths"] = 100_000
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--config", path, "--out", str(out)])
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        mc_arg = [float(r[0]) for r in rows if r[4] == "1"]
        an_arg = [float(r[0]) for r in rows if r[5] == "1"]
        assert an_arg == [1.0]
        assert abs(mc_arg[0] - 1.0) <= 0.1

    def test_exact_column_is_seed_independent(self, tmp_path):
        cfg = base_config(sweep={"pi_lo": 0.0, "pi_hi": 2.0, "pi_step": 0.25})
        path = write_config(tmp_path, cfg)
        columns = []
        for seed in ("11", "22"):
            out = tmp_path / f"sweep{seed}.csv"
            cli.main(["sweep", "--config", path, "--seed", seed, "--out", str(out)])
            rows = out.read_text().strip().splitlines()[1:]
            columns.append([ln.split(",")[3] for ln in rows])
        assert columns[0] == columns[1]

    def test_sweep_requires_output_path(self, tmp_path, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "sweep", sweep)    # the fault is found before it draws
        path = write_config(tmp_path, base_config())
        assert cli.main(["sweep", "--config", path]) == 2
        assert capsys.readouterr() == (
            "", "configuration error: sweep needs --out or output_path for its CSV\n")


GRID = base_config()["grid"]
INF = float("inf")


class TestUnusableSteps:
    """Step sizes and bounds the schema accepts but that give no usable node
    count: a configuration error (exit 2) whose message names the key."""

    @pytest.mark.parametrize("command, over, key", [
        *(("closed-form", {"grid": dict(GRID, control_step=step)}, "grid.control_step")
          for step in (1e-320, 1e-300, float("nan"))),
        *(("sweep", {"sweep": {"pi_step": step}}, "sweep.pi_step")
          for step in (1e-320, 1e-300, float("nan"))),
        ("sweep", {"sweep": {"pi_lo": 1, "pi_hi": 1.0000000000000002, "pi_step": 1e-17}},
         "sweep.pi_step"),
        *(("closed-form", {"ode": {"step": step}}, "ode.step")
          for step in (1e-320, 1e-300, float("nan"))),
        ("closed-form", {"control_bounds": [0, INF]}, "control_bounds"),
        ("verify", {"control_bounds": [0, INF], "grid": dict(GRID, control_nodes=[0.0, 1.0])},
         "control_bounds"),
        # counts numpy cannot hold in one array, rejected before any allocation
        ("closed-form", {"grid": dict(GRID, control_step=1e-18)}, "grid.control_step"),
        ("hjb-solve", {"grid": dict(GRID, n_x=2 ** 62)}, "grid.n_x"),
        ("hjb-solve", {"grid": dict(GRID, n_x=10 ** 400)}, "an n_x that a float holds"),
        ("hjb-solve", {"grid": dict(GRID, n_t=2 ** 58)}, "grid.n_t"),
        ("hjb-solve", {"grid": dict(GRID, n_x=2 ** 50, n_t=1, control_step=1e-4)},
         "control nodes"),
        ("mc-estimate", {"mc": {"n_paths": 2 ** 62}}, "mc.n_paths"),
        # non-finite grids, control nodes and pi
        *(("hjb-solve", {"grid": dict(GRID, **bad)}, key)
          for bad, key in (({"x_min": -INF}, "x_min"), ({"x_max": INF}, "x_max"),
                           ({"x_min": -1e308, "x_max": 1e308}, "x_min"))),
        ("hjb-solve", {"grid": dict(GRID, control_nodes=[float("nan")])}, "control_nodes"),
        ("hjb-solve", {"control_bounds": [0, INF],
                       "grid": dict(GRID, control_nodes=[0.0, INF])}, "control_nodes"),
        *(("mc-estimate", {"pi": pi}, "pi") for pi in (float("nan"), INF, -INF)),
        # integers too large for a float, alone and in lists
        ("closed-form", {"market": dict(ACCEPT_MARKET, mu=10 ** 400)}, "market.mu"),
        ("closed-form", {"grid": dict(GRID, control_nodes=[0.0, 10 ** 400])},
         "grid.control_nodes"),
        ("closed-form", {"report_times": [0.0, 10 ** 400]}, "report_times"),
        ("closed-form", {"control_bounds": [0, 10 ** 400]}, "control_bounds"),
    ])
    def test_exit_2_naming_the_key(self, tmp_path, capsys, command, over, key):
        path = write_config(tmp_path, base_config(**over))
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ") and key in captured.err

    @pytest.mark.parametrize("command",
                             ["closed-form", "ode-check", "hjb-solve", "mc-estimate"])
    def test_infinite_control_bound_with_explicit_nodes_runs(self, tmp_path, command):
        cfg = base_config(control_bounds=[0, INF],
                          grid=dict(GRID, control_nodes=[0.0, 1.0, 2.0]))
        path = write_config(tmp_path, cfg)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0

    def test_empty_interior_window_is_a_configuration_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["grid"].update(x_min=-2.0, x_max=2.0)    # narrower than the largest jump, 3
        path = write_config(tmp_path, cfg)
        assert cli.main(["hjb-solve", "--config", path]) == 2
        assert "x_min" in capsys.readouterr().err

    @pytest.mark.parametrize("x_min, x_max", [(-1e160, 1e160), (0.0, 1e-320)],
                             ids=["dx-squared-overflows", "dx-squared-underflows"])
    def test_node_spacing_with_unusable_square_exits_2_without_warnings(self, tmp_path,
                                                                         x_min, x_max):
        path = write_config(tmp_path, base_config(grid=dict(GRID, x_min=x_min, x_max=x_max)))
        run = run_cli_warnings_as_errors("hjb-solve", "--config", path)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith("configuration error: invalid grid section: ")
        assert "dx" in run.stderr and len(run.stderr.splitlines()) == 1
        assert "Warning" not in run.stderr


class TestErrorContract:
    """Exit 2 for every configuration fault wherever it is found, 3 for a
    numerical error, 4 with a traceback for anything else."""

    @pytest.mark.parametrize("exc", [ValueError("boom"), KeyError("boom")])
    def test_internal_error_exits_4_with_a_traceback(self, tmp_path, capsys,
                                                    monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve_f_backward", broken)
        path = write_config(tmp_path, base_config())
        assert cli.main(["ode-check", "--config", path]) == cli.EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):")
        assert type(exc).__name__ in captured.err and "configuration error" not in captured.err

    @pytest.mark.parametrize("command, target, exc, message", [
        ("ode-check", (cli, "solve_f_backward"), MemoryError("Unable to allocate 8.00 EiB"),
         "Unable to allocate 8.00 EiB"),
        ("ode-check", (cli, "solve_f_backward"), MemoryError(), "out of memory"),
        # the shared map of the forked post march cannot be made
        ("hjb-solve", (mmap, "mmap"), OSError(12, "Cannot allocate memory"),
         "cannot map a post-switch surface of shape (501, 101)"),
    ], ids=["message", "bare", "post-map"])
    def test_memory_error_is_a_configuration_error(self, tmp_path, capsys, monkeypatch,
                                                   command, target, exc, message):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(*target, broken)
        path = write_config(tmp_path, base_config())
        assert cli.main([command, "--config", path]) == 2
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")

    @pytest.mark.parametrize("via", ["--out", "output_path"])
    @pytest.mark.parametrize("command", ["closed-form", "sweep"])
    def test_unwritable_output_is_a_configuration_error(self, tmp_path, capsys,
                                                        command, via):
        out = str(tmp_path / "missing" / "report")
        cfg = base_config(sweep={"pi_lo": 0.5, "pi_hi": 1.5, "pi_step": 0.5})
        if via == "output_path":
            cfg["output_path"] = out
        args = [command, "--config", write_config(tmp_path, cfg)]
        assert cli.main(args + (["--out", out] if via == "--out" else [])) == 2
        assert capsys.readouterr() == (
            "", f"configuration error: cannot write {out}: No such file or directory\n")

    @pytest.mark.parametrize("via", ["stdout", "--out"])
    def test_non_finite_report_number_exits_4_and_writes_nothing(self, tmp_path, capsys,
                                                                  monkeypatch, via):
        real = cli._COMMANDS["closed-form"]
        monkeypatch.setitem(cli._COMMANDS, "closed-form",
                            lambda cfg: {**real(cfg), "pi_star": float("nan")})
        out = tmp_path / "report.json"
        args = ["closed-form", "--config", write_config(tmp_path, base_config())]
        assert cli.main(args + (["--out", str(out)] if via == "--out" else [])) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("Traceback (most recent call last):")
        assert "ValueError: Out of range float values are not JSON compliant" in captured.err

    def test_oracle_grid_ends_at_the_upper_control_bound(self, tmp_path, capsys):
        # a grid past u_hi = 0.9996 would reach pi = 1, where linear loss is
        # undefined; verify then fails its gates (exit 1) as linear loss does
        cfg = base_config(loss_mode="linear", control_bounds=[0.0, 0.9996])
        cfg["market"]["mu"] = 0.06
        cfg["grid"].update(x_min=-14.0, x_max=4.0)
        assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
        gates = {g["name"]: g for g in json.loads(capsys.readouterr().out)["gates"]}
        assert not gates["oracle_argmax"]["pass"]

    @pytest.mark.parametrize("command, over", [
        ("mc-estimate", {"pi": 1.5}),
        ("sweep", {"sweep": {"pi_lo": 0.0, "pi_hi": 1.2, "pi_step": 0.1}}),
    ])
    def test_linear_loss_weight_of_one_or_more_exits_2(self, tmp_path, capsys,
                                                        command, over):
        cfg = base_config(loss_mode="linear", control_bounds=[0.0, 0.9], **over)
        path = write_config(tmp_path, cfg)
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("configuration error: linear loss requires "
                                           "pi < 1 (wealth would hit zero)\n")


LINEAR_LOSS_PI = "linear loss requires pi < 1 (wealth would hit zero)"


class TestX0OnTheGate:
    def test_a_boundary_polluted_x0_fails_hjb_vs_closed(self, tmp_path, capsys):
        # x0 = log w0 = 0 is the edge node x_min, below the interior window;
        # the gate read only the window (1.96e-7) while f0_hjb was 0.0639
        cfg = base_config(grid={"x_min": 0.0, "x_max": 8.0, "n_x": 101, "n_t": 1000})
        assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
        report = json.loads(capsys.readouterr().out)
        gates = {g["name"]: g for g in report["gates"]}
        assert [n for n, g in gates.items() if not g["pass"]] == ["hjb_vs_closed"]
        assert gates["hjb_vs_closed"]["deviation"] == pytest.approx(
            report["f0_hjb"] - report["f0_closed"], rel=1e-9)
        assert gates["hjb_vs_closed"]["deviation"] == pytest.approx(0.0241, abs=1e-4)


class TestEveryCommandJudgesTheWholeConfig:
    """A fault in any key is a configuration error (exit 2) for every command,
    not only for the command that reads the key, with the message that
    command prints."""

    @pytest.mark.parametrize("over, message", [
        # each of these once meant one RK4 step, the control 0 and a one-row sweep
        ({"ode": {"step": INF}}, "ode.step must be a finite number"),
        ({"grid": dict(GRID, control_step=INF)}, "grid.control_step must be a finite number"),
        ({"ode": {"step": -1e-4}}, "invalid ode section: step must be positive"),
        ({"grid": dict(GRID, control_step=0.0)}, "grid.control_step must be positive"),
        ({"report_times": [0.0, 1.5]}, "report_times must lie inside [0, horizon_T]"),
        ({"sweep": {"pi_step": INF}}, "sweep.pi_step must be a finite number"),
        *(({"sweep": {key: float("nan")}}, f"sweep.{key} must be a finite number")
          for key in ("pi_lo", "pi_hi", "pi_step")),
        ({"loss_mode": "linear", "control_bounds": [0.0, 0.9], "pi": 1.0}, LINEAR_LOSS_PI),
        ({"loss_mode": "linear", "control_bounds": [0.0, 0.9],
          "sweep": {"pi_lo": 0.5, "pi_hi": 1.0, "pi_step": 0.1}}, LINEAR_LOSS_PI),
        ({"grid": dict(GRID, control_nodes=[0.0, 3.5])},
         "control_nodes fall outside the problem's control_bounds"),
        ({"sweep": {"pi_step": 1e-320}},
         "sweep.pi_step = 1e-320 over [pi_lo, pi_hi] = [0.0, 3.0] gives inf intervals"),
        # a finite node count whose nodes do not ascend: only sweep refused it
        ({"sweep": {"pi_lo": 1, "pi_hi": 1.0000000000000002, "pi_step": 1e-17}},
         "sweep.pi_step = 1e-17 over [pi_lo, pi_hi] = [1.0, 1.0000000000000002] "
         "gives nodes that are not strictly ascending"),
        # RK4 past its stability limit: ode-check printed "f0_rk4": NaN
        ({"market": dict(ACCEPT_MARKET, h=3e4)},
         "ode.step = 0.0001 gives RK4 steps of 0.0001 that are unstable at h = 30000.0: "
         "|R(-h ds)| = 1.375 > 1"),
        # x0 = log w0 off the state grid: hjb-solve reported the edge node as x0
        ({"grid": dict(GRID, x_min=2.0, x_max=10.0)},
         "log(market.w0) = 0.0 lies outside [grid.x_min, grid.x_max] = [2.0, 10.0]"),
        ({"market": dict(ACCEPT_MARKET, w0=1e3), "grid": dict(GRID, x_min=-4.0, x_max=4.0)},
         "log(market.w0) = 6.907755278982137 lies outside [grid.x_min, grid.x_max] "
         "= [-4.0, 4.0]"),
        # a zero step is refused before the interval count divides by it
        ({"ode": {"step": 0.0}}, "invalid ode section: step must be positive"),
        # narrower than the largest jump, 3, plus its buffer: no interior window
        ({"grid": dict(GRID, x_min=-2.0, x_max=2.0)},
         "no node of [x_min, x_max] lies 4.5 above x_min and 0.5 below x_max"),
        # the problem judges the bounds under either loss, before the linear u_hi < 1
        ({"control_bounds": [2.0, 1.0]}, "control_bounds must satisfy u_lo < u_hi"),
        ({"loss_mode": "linear", "control_bounds": [2.0, 1.0]},
         "control_bounds must satisfy u_lo < u_hi"),
        # the schema alone judges ode.method
        ({"ode": {"method": "euler"}}, "ode.method must be one of ['rk4']"),
    ])
    def test_exit_2_from_every_command(self, tmp_path, capsys, over, message):
        path = write_config(tmp_path, base_config(**over))
        for command in cli._COMMANDS:
            assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr() == ("", f"configuration error: {message}\n"), command

    def test_no_interior_window_is_found_before_the_solve(self, tmp_path, capsys,
                                                          monkeypatch):
        def solve_system(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli, "solve_system", solve_system)
        cfg = base_config()
        cfg["grid"].update(x_min=-2.0, x_max=2.0)    # narrower than the largest jump, 3
        path = write_config(tmp_path, cfg)
        for command in ("hjb-solve", "verify"):
            assert cli.main([command, "--config", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(
                "configuration error: no node of [x_min, x_max] lies 4.5 above x_min")

    def test_the_oracle_grid_is_built_before_the_solves(self, tmp_path, capsys,
                                                        monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr(cli, "solve_f_backward", solve)
        monkeypatch.setattr(cli, "solve_system", solve)
        cfg = base_config(control_bounds=[0, INF],
                          grid=dict(GRID, control_nodes=[0.0, 1.0, 2.0]))
        assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr() == (
            "", "configuration error: the oracle grid over control_bounds [0.0, inf] "
                "gives inf intervals\n")


_FIELDS = ([("market", k) for k in ACCEPT_MARKET]
           + [("ode", k) for k in ("step", "method")]
           + [("grid", k) for k in ("x_min", "x_max", "n_x", "n_t", "control_nodes",
                                    "control_step")]
           + [("mc", k) for k in ("n_paths", "seed", "antithetic")]
           + [("sweep", k) for k in ("pi_lo", "pi_hi", "pi_step")]
           + [(None, k) for k in ("loss_mode", "variant", "control_bounds", "report_times",
                                  "pi", "output_path", "market", "ode", "grid", "mc",
                                  "sweep")])
# numbers stay small or non-finite: a list can become the control bounds, and a
# finite but huge node count would be built (filling memory) before any check
_NUMBERS = st.one_of(st.integers(-2, 5), st.just(2 ** 70),
                     st.sampled_from([0.0, 0.05, 0.5, 0.9, 3.0, -1.0, float("nan"),
                                      float("inf"), -float("inf"), 1e-320]))
_SPECIAL = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e-320])
_VALUES = st.one_of(_NUMBERS, st.none(), st.booleans(),
                    st.sampled_from(["x", "linear", "paper", "rk4"]),
                    st.lists(st.one_of(_NUMBERS, st.just("a")), max_size=3),
                    st.dictionaries(st.sampled_from(["a", "step", "mu"]), _NUMBERS,
                                    max_size=2))
_NUMBER_FIELDS = [f for f in _FIELDS if f[0] in ("market", "sweep")
                  or f[1] in ("step", "x_min", "x_max", "control_step", "pi")]


@st.composite
def _mutated_configs(draw):
    """The test's base config with one or two faults: a key deleted, a value of
    another type, an unknown key, or a number set to NaN, +-Infinity or 1e-320
    (one of them alone, or as a control bound)."""
    raw = base_config(sweep={"pi_lo": 0.0, "pi_hi": 2.0, "pi_step": 0.5}, pi=0.5)
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["delete", "set", "unknown", "special", "bound"]))
        section, key = draw(st.sampled_from(_NUMBER_FIELDS if action == "special"
                                            else _FIELDS))
        target = raw if section is None else raw.setdefault(section, {})
        if not isinstance(target, dict):
            continue
        if action == "delete":
            target.pop(key, None)
        elif action == "unknown":
            target["bogus"] = draw(_VALUES)
        elif action == "bound":
            raw["control_bounds"] = draw(st.permutations([0.0, draw(_SPECIAL)]))
        else:
            target[key] = draw(_SPECIAL if action == "special" else _VALUES)
    return raw


@settings(max_examples=1000)
@given(raw=_mutated_configs())
def test_resolve_config_returns_a_fixed_point_or_raises_config_error(raw):
    try:
        cfg = cli.resolve_config(copy.deepcopy(raw))
    except cli.ConfigError:
        return
    # rendered, so that a NaN compares equal to itself
    assert cli.render_report(cli.resolve_config(copy.deepcopy(cfg))) == cli.render_report(cfg)


# --------------------------------------------------------------------------
# every accepted or refused config ends in a classified exit
# --------------------------------------------------------------------------

def _log_uniform(lo, hi):
    """10**e for e in [lo, hi]: an integer part, then a fraction, so that every
    decade is drawn about as often."""
    return st.tuples(st.integers(lo, hi - 1), st.floats(0, 1)).map(
        lambda p: 10.0 ** (p[0] + p[1]))


def _signed(magnitudes):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda p: p[0] * p[1])


# a value of a drawn key, by (section, key); sizes stay small: n_x <= 41,
# n_t <= 3000, n_paths <= 1000, at most about 80 sweep policies or control
# nodes, and 1e5 RK4 steps
_RANGED = {
    ("market", "mu"): _signed(_log_uniform(-6, 6)),
    ("market", "sigma"): _log_uniform(-320, 200),
    ("market", "r"): _signed(_log_uniform(-6, 6)),
    ("market", "h"): st.one_of(st.just(0.0), _log_uniform(-8, 8)),
    ("market", "horizon_T"): _log_uniform(-3, 1),
    ("market", "w0"): _log_uniform(-300, 300),
    (None, "loss_mode"): st.sampled_from(["exponential", "linear"]),
    (None, "variant"): st.sampled_from(["paper", "derived"]),
    (None, "control_bounds"): st.tuples(st.sampled_from([0.0, -1.0, 0.5]),
                                        st.sampled_from([0.9, 0.99, 1.0, 3.0, INF])).map(list),
    ("ode", "step"): _log_uniform(-4, 0),
    ("ode", "method"): st.just("rk4"),
    ("grid", "x_min"): _signed(_log_uniform(-1, 1)),
    ("grid", "x_max"): _signed(_log_uniform(-1, 1)),
    ("grid", "n_x"): st.integers(1, 41),
    ("grid", "n_t"): st.floats(0, 3.4).map(lambda e: int(10 ** e)),
    ("grid", "control_nodes"): st.lists(st.floats(-0.5, 3.5), min_size=1, max_size=4),
    ("grid", "control_step"): st.floats(0.05, 3.0),
    ("mc", "n_paths"): st.integers(1, 1000),
    ("mc", "seed"): st.integers(0, 2 ** 64 - 1),
    ("mc", "antithetic"): st.booleans(),
    (None, "report_times"): st.lists(st.floats(-0.1, 11.0), min_size=1, max_size=3),
    (None, "pi"): st.one_of(st.none(), st.floats(-0.5, 3.5)),
    ("sweep", "pi_lo"): st.floats(-0.5, 3.0),
    ("sweep", "pi_hi"): st.floats(0.0, 3.5),
    ("sweep", "pi_step"): st.floats(0.05, 3.0),
    # a name under the run's own directory, or in a directory that is missing
    (None, "output_path"): st.sampled_from(["report.out", "missing/report.out"]),
}
# another type, a special number, an integer too large for a float
_ODD = st.sampled_from([None, "x", True, [], {}, -1, 0, 2 ** 70, 10 ** 400, 1e-320,
                        float("nan"), INF, -INF])


@st.composite
def _raw_cli_runs(draw):
    """A small config (ode.step 0.01, x in [-4, 4], n_x 21, n_t 100, 500 paths)
    whose market keys are each the acceptance value or one of wide magnitude,
    with up to three of _SCHEMA's keys changed: each left out (a size: kept),
    given a value in its range or given an odd one; plus optional flags."""
    raw = {"market": {key: draw(st.one_of(st.just(value), _RANGED["market", key]))
                      for key, value in ACCEPT_MARKET.items()},
           "ode": {"step": 0.01}, "grid": {"x_min": -4.0, "x_max": 4.0, "n_x": 21, "n_t": 100},
           "mc": {"n_paths": 500}}
    keys = st.sampled_from([row[:2] for row in cli._SCHEMA])
    for section, key in draw(st.lists(keys, max_size=3, unique=True)):
        target = raw if section is None else raw.setdefault(section, {})
        how = draw(st.sampled_from(["ranged", "ranged", "odd", "left out"]))
        if how == "left out" and key not in ("n_x", "n_t", "n_paths"):
            target.pop(key, None)
        elif how != "left out":
            target[key] = draw(_RANGED[section, key] if how == "ranged" else _ODD)
    flags = []
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.sampled_from([-1, 0, 7, 2 ** 64 - 1, 2 ** 64])))]
    if draw(st.booleans()):
        flags += ["--variant", draw(st.sampled_from(["paper", "derived", "neither"]))]
    return raw, flags


def _parse_report(text):
    """json.loads refusing NaN anywhere and +-Infinity outside the echoed config."""
    def constant(token):
        if token == "NaN":
            raise ValueError("a report holds NaN")
        return float(token)

    report = json.loads(text, parse_constant=constant)
    json.dumps({k: v for k, v in report.items() if k != "config"}, allow_nan=False)
    return report


@settings(max_examples=150)
@given(run=_raw_cli_runs())
def test_every_command_ends_in_a_classified_exit(run):
    """0, 1, 2 or 3 with strict JSON reports: exit 0 or 1 leaves stderr
    empty, 2 or 3 prints one line, and the only warning allowed is the
    hazard*dt one, on exit 0 or 1. hjb-solve's x0 is the node nearest log w0."""
    raw, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(raw.get("output_path"), str):
            raw["output_path"] = os.path.join(tmp, raw["output_path"])
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        for command in cli._COMMANDS:
            out = os.path.join(tmp, "sweep.csv") if command == "sweep" else None
            argv = [command, "--config", path, *flags] + (["--out", out] if out else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = cli.main(argv)
            stray = [w for w in caught if not (code in (0, 1)
                                               and w.category is RuntimeWarning
                                               and str(w.message).startswith("hazard*dt"))]
            assert not stray, (command, [str(w.message) for w in stray])
            assert code in (0, 1, 2, 3), (command, stderr.getvalue())
            if code >= 2:
                assert stdout.getvalue() == "" and len(stderr.getvalue().splitlines()) == 1
                continue
            assert stderr.getvalue() == ""
            text = stdout.getvalue()
            if command != "sweep" and raw.get("output_path"):    # the report went there
                assert text == ""
                with open(raw["output_path"], encoding="utf-8") as fh:
                    text = fh.read()
            report = _parse_report(text)
            if command == "hjb-solve":
                g = report["config"]["grid"]
                dx = (g["x_max"] - g["x_min"]) / (g["n_x"] - 1)
                x0 = math.log(report["config"]["market"]["w0"])
                assert abs(report["x0"] - x0) <= 0.5 * dx * (1 + 1e-9) + 1e-12 * abs(x0)
