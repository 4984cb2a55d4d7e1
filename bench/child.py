"""One measured process: set up a workload, optionally run it, report timings.

Usage: python3 bench/child.py WORKLOAD INPUT_JSON MODE OUT_PREFIX

MODE is ``reference`` (interpreter plus ``import numpy`` only, then stop),
``setup`` (stop once ready), ``plain`` (run untraced), ``trace`` (run with
spans) or ``alloc`` (spans plus tracemalloc, which slows numpy
allocation-heavy code by well over half, so its times are not used). The
program's outputs are written next to OUT_PREFIX; one JSON line on stdout
carries the timings. ``ready`` is read from CLOCK_MONOTONIC, which the
parent shares, so the parent can time set-up from the moment it launched
this process.
"""

import json
import os
import sys
import time

# set-up starts here: interpreter, imports, config resolution and, where
# the run uses them, problem and grid construction
workload, input_path, mode, out_prefix = sys.argv[1:5]

if mode == "reference":
    # the floor every set-up shares, timed beside it to factor out host speed
    import numpy  # noqa: E402,F401
    print(json.dumps({"ready": time.monotonic()}))
    sys.exit(0)

import regimehjb  # noqa: E402
from regimehjb import cli, hjb, montecarlo  # noqa: E402

src_dir = os.path.realpath(os.path.join(os.getcwd(), "src"))
if not os.path.realpath(regimehjb.__file__).startswith(src_dir + os.sep):
    sys.exit(f"regimehjb imported from {regimehjb.__file__}, not from {src_dir}")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

with open(input_path, encoding="utf-8") as fh:
    inputs = json.load(fh)

t0 = time.perf_counter()
cfg = cli.resolve_config(inputs["config"])
t1 = time.perf_counter()
# cmd_verify and cmd_sweep build their market, grid and problem themselves
# (traced as model.* spans); only hjb-generic's run needs them ready
grid = problem = None
if workload == "hjb-generic":
    grid = cli.build_grid(cfg)
    problem = workloads.generic_problem(inputs["coeffs"], cfg["market"]["horizon_T"],
                                        cfg["control_bounds"])
t2 = time.perf_counter()
result = {"ready": time.monotonic(), "resolve_config_s": t1 - t0, "build_s": t2 - t1}

if mode == "setup":
    print(json.dumps(result))
    sys.exit(0)

tracer = None
if mode in ("trace", "alloc"):
    import tracemalloc

    import tracing
    tracer = tracing.Tracer()
    tracer.install({"cli": cli, "hjb": hjb, "montecarlo": montecarlo})
    if mode == "alloc":
        tracemalloc.start()


def write(suffix, text):
    with open(out_prefix + suffix, "w", encoding="utf-8") as fh:
        fh.write(text)


# the run: the command body, up to a complete report or surface
start = time.perf_counter()
if workload == "verify":
    write(".report.json", cli.render_report(cli.cmd_verify(cfg)))
elif workload == "mc-sweep":
    report = cli.cmd_sweep(cfg)
    cli.write_sweep_csv(report, out_prefix + ".sweep.csv")
    write(".summary.json", cli.render_report({k: v for k, v in report.items() if k != "rows"}))
else:
    surface = hjb.solve_system(problem, grid)
result["run_s"] = time.perf_counter() - start

if tracer is not None:
    tracemalloc.stop()
    tracer.restore()
    surface = tracer.surface
    result["layers"] = tracing.summarize(tracer, result["run_s"],
                                         workloads.DOMINANT_LAYER[workload])
    result["layers"]["model.build_s"] += result["build_s"]
    result["layers"].update({"hjb.coupling_frac": 0.0, "hjb.mesh_bytes": 0})
    if workload == "verify":
        # the surface's own grid and problem, rebuilt outside the timed run
        grid = cli.build_grid(cfg)
        problem = regimehjb.merton_as_generic(cli.build_market(cfg), cli.build_loss(cfg),
                                              tuple(cfg["control_bounds"]))
    if grid is not None:
        import dataclasses
        import statistics

        # 1 - t(h=0)/t(h) for one mid-horizon pre-switch Hamiltonian
        T = problem.horizon
        i = grid.n_t // 2
        args = (grid, grid.times(T)[i + 1], surface.v_pre[i + 1], surface.v_after[i + 1])
        uncoupled = dataclasses.replace(problem, hazard=0.0)
        t_h, t_0 = [], []
        for _ in range(15):
            for p, acc in ((problem, t_h), (uncoupled, t_0)):
                a = time.perf_counter()
                hjb.pre_hamiltonian(p, *args)
                acc.append(time.perf_counter() - a)
        result["layers"]["hjb.coupling_frac"] = 1.0 - statistics.median(t_0) / statistics.median(t_h)
        result["layers"]["hjb.mesh_bytes"] = 8 * grid.n_x * grid.control_nodes.size
    with open(out_prefix + ".spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)

if grid is not None and (tracer is not None or workload == "hjb-generic"):
    write(".rows.json", json.dumps({"x": grid.x_nodes.tolist(),
                                    "v_pre0": surface.v_pre[0].tolist(),
                                    "v_after0": surface.v_after[0].tolist()}))
print(json.dumps(result))
