import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimehjb import cli

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
        resolved = cli.resolve_config(base_config(), seed_override=7,
                                      variant_override="paper")
        assert resolved["mc"]["seed"] == 7
        assert resolved["variant"] == "paper"

    def test_control_nodes_and_step_are_exclusive(self):
        cfg = base_config()
        cfg["grid"]["control_nodes"] = [0.0, 1.0]
        cfg["grid"]["control_step"] = 0.1
        with pytest.raises(cli.ConfigError, match="not both"):
            cli.resolve_config(cfg)

    def test_linear_loss_needs_sub_unit_bounds(self):
        cfg = base_config(loss_mode="linear")
        with pytest.raises(cli.ConfigError, match="u_hi < 1"):
            cli.resolve_config(cfg)
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

    def test_missing_config_file_is_config_error(self, capsys):
        assert cli.main(["verify", "--config", "/no/such/file.json"]) == 2
        assert "configuration error" in capsys.readouterr().err

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
    def test_coarse_hazard_step_warns_then_breaks_the_stability_bound(self, tmp_path,
                                                                      command):
        cfg = base_config()
        cfg["market"]["h"] = 5000.0        # h dt = 5: the explicit update is not monotone
        cfg["grid"]["n_t"] = 1000
        path = write_config(tmp_path, cfg)
        run = run_cli_warnings_as_errors(command, "--config", path, allow="hazard*dt")
        assert (run.returncode, run.stdout) == (2, "")
        warned = [line for line in run.stderr.splitlines() if "Warning: " in line]
        assert len(warned) == 1 and "RuntimeWarning: hazard*dt = 5 > 0.1" in warned[0]
        # T (|drift|/dx + vol^2/dx^2 + h) at the largest control, 3
        assert run.stderr.endswith("\nconfiguration error: CFL violation for the pre regime "
                                   "at t=1: dt=1.000e-03 exceeds 1/(max|drift|/dx + "
                                   "max(vol^2)/dx^2 + hazard)=1.977e-04; "
                                   "need n_t >= 5058\n")
        cfg["grid"]["n_t"] = 5058
        path = write_config(tmp_path, cfg)
        run = run_cli_warnings_as_errors(command, "--config", path, allow="hazard*dt")
        assert "CFL" not in run.stderr and run.returncode in (0, 1)

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

    def test_sweep_requires_output_path(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert cli.main(["sweep", "--config", path]) == 2
        assert "sweep" in capsys.readouterr().err


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
        ("hjb-solve", {"grid": dict(GRID, n_t=2 ** 58)}, "grid.n_t"),
        ("hjb-solve", {"grid": dict(GRID, n_x=2 ** 50, n_t=1, control_step=1e-4)},
         "control nodes"),
        ("mc-estimate", {"mc": {"n_paths": 2 ** 62}}, "mc.n_paths"),
        # non-finite grids, control nodes and pi
        *(("hjb-solve", {"grid": dict(GRID, **bad)}, "x_min")
          for bad in ({"x_min": -INF}, {"x_max": INF}, {"x_min": -1e308, "x_max": 1e308})),
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

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_is_a_configuration_error(self, tmp_path, capsys, monkeypatch,
                                                   exc, message):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve_f_backward", broken)
        path = write_config(tmp_path, base_config())
        assert cli.main(["ode-check", "--config", path]) == 2
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
