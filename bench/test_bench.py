"""Tests of the benchmark itself: seeded inputs, span arithmetic, coverage."""

import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = workloads.dump_inputs(workloads.make_inputs(workload, 7))
    b = workloads.dump_inputs(workloads.make_inputs(workload, 7))
    assert a == b


def _sizes(workload, seed):
    from regimehjb import cli
    cfg = cli.resolve_config(workloads.make_inputs(workload, seed)["config"])
    grid = cli.build_grid(cfg)
    return (grid.n_x, grid.n_t, grid.control_nodes.size, cfg["ode"]["step"],
            cfg["mc"]["n_paths"], tuple(cfg["sweep"].values()))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_inputs_but_not_sizes(workload):
    assert workloads.make_inputs(workload, 1) != workloads.make_inputs(workload, 2)
    assert _sizes(workload, 1) == _sizes(workload, 2)


def test_generic_inputs_pass_their_own_checks():
    checks = workloads.input_checks("hjb-generic", workloads.make_inputs("hjb-generic", 3))
    assert [ok for _, ok, _ in checks] == [True, True]


def test_self_times_subtract_direct_children_only():
    spans = [["cli.cmd", 0, 100, -1],
             ["hjb.solve", 10, 40, 0],
             ["hjb.step", 20, 30, 1],
             ["mc.sweep", 50, 90, 0]]
    selfs = tracing.self_times(spans)
    assert selfs == [30, 20, 10, 40]
    assert sum(selfs) == 100
    assert tracing.outermost_ns(spans, "hjb") == 30
    assert tracing.outermost_ns(spans, "mc") == 40


def test_tracer_records_nesting_and_self_times_add_up():
    tracer = tracing.Tracer()
    inner = tracer.span("hjb.inner", lambda: time.sleep(0.002))
    outer = tracer.span("cli.outer", lambda: (inner(), inner()))
    outer()
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("cli.outer", -1), ("hjb.inner", 0), ("hjb.inner", 0)]
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs) >= 0
    assert sum(selfs) == tracer.spans[0][2] - tracer.spans[0][1]


def test_install_wraps_only_public_names_and_restores_them():
    from regimehjb import cli, hjb, montecarlo
    modules = {"cli": cli, "hjb": hjb, "montecarlo": montecarlo}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.WRAPPED}
    assert not any(a.startswith("_") for _, a in before)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert all(getattr(modules[m], a).__wrapped__ is f for (m, a), f in before.items())
    finally:
        tracer.restore()
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


def test_reference_child_stops_before_the_program(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "verify", "unused", "reference",
         str(tmp_path / "r")],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=True)
    assert list(json.loads(out.stdout.strip().splitlines()[-1])) == ["ready"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_spans_cover_run(workload, tmp_path):
    inputs = tmp_path / "input.json"
    inputs.write_bytes(workloads.dump_inputs(workloads.make_inputs(workload, 5)))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), workload, str(inputs),
         "trace", str(tmp_path / "c")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    spans = json.loads((tmp_path / "c.spans.json").read_text())
    top_ns = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(tracing.self_times(spans)) == top_ns
    assert top_ns * 1e-9 <= res["run_s"]
    assert res["layers"]["trace.coverage_frac"] >= workloads.COVERAGE_MIN
    assert res["layers"]["model.build_s"] > 0
