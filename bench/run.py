"""Benchmark driver for regimehjb.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root. The driver generates the workload's inputs
from the seed, then launches one child process at a time (bench/child.py)
until ``--seconds`` have passed, so every child gets its own set-up time
and peak RSS. With ``--trace 0`` it reports the end-to-end metrics of
untraced children, and times set-up-only children against reference
children (interpreter plus numpy import) launched beside them; with
``--trace 1`` it alternates untraced and traced children and reports the
per-layer metrics of the traced ones, plus the tracing overhead; one last
child runs with tracemalloc for the per-layer peak allocations. Every child's output is checked (report gates, oracles,
byte-identical outputs for one seed). The last stdout line is one JSON
object: correct, attempted, failed, metrics. Details, samples and the
machine description go to .bench_out/<workload>-s<seed>-t<trace>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
CHILD_TIMEOUT_S = 120
MIN_CHILDREN = 3          # untraced children per run, whatever --seconds says
MIN_TRACED = 2
SETUP_PAIRS = 2           # set-up/reference child pairs before each untraced child
# setup_s is the median set-up/reference ratio in units of this: the
# reference child's (interpreter + import numpy) start-up on the 2-core
# Xeon host the benchmark was defined on
REFERENCE_SETUP_S = 0.2


class ChildFailed(RuntimeError):
    pass


def run_child(root, workload, input_path, mode, prefix):
    """Run one child to completion; returns its timings, set-up and peak RSS."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(prefix + ".err", "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, workload, input_path, mode, prefix],
                                cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            # wait4 rather than Popen.wait: it also returns the child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
    if proc.returncode != 0:
        with open(prefix + ".err", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed(f"{mode} child exited with {proc.returncode}:\n{tail}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["setup_s"] = res.pop("ready") - launched
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0   # KiB on Linux
    return res


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def machine_description(root):
    def first_line(path, default="unknown"):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.readline().strip()
        except OSError:
            return default

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level = first_line(base + "/level", None)
        if level in ("2", "3"):
            caches[f"L{level}"] = first_line(base + "/size")
    ram = first_line("/proc/meminfo")
    commit = "unavailable (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        ref = first_line(head)
        commit = first_line(os.path.join(root, ".git", ref[5:]), ref) if ref.startswith("ref: ") else ref
    import numpy
    from importlib import metadata
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {"cpu": cpu, "caches": caches, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "ram": ram,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "commit": commit}


def output_checks(workload, cfg, res, prefix, first, oracle):
    """Checks on one child's outputs; ``first`` holds the first child's bytes."""
    from regimehjb import cli

    checks, health = [], {}
    names = {"verify": [".report.json"], "mc-sweep": [".sweep.csv", ".summary.json"],
             "hjb-generic": [".rows.json"]}[workload]
    outputs = {n: _read(prefix + n) for n in names}
    for n, data in outputs.items():
        first.setdefault(n, data)
        checks.append((f"identical:{n[1:]}", data == first[n], f"{len(data)} bytes"))
    if workload == "verify":
        gate_checks, health["mc.z_max"] = workloads.verify_checks(outputs[".report.json"].decode())
        checks += gate_checks
    elif workload == "mc-sweep":
        row_checks, health["mc.z_max"] = workloads.sweep_checks(outputs[".sweep.csv"].decode())
        checks += row_checks
    if os.path.exists(prefix + ".rows.json"):
        rows = json.loads(_read(prefix + ".rows.json"))
        health["hjb.err_pre"], health["hjb.err_post"] = workloads.surface_errors(rows, cfg, oracle)
        if workload == "hjb-generic":
            checks.append(("hjb_vs_oracle", health["hjb.err_pre"] <= cli.TOL_HJB_VS_CLOSED,
                           f"interior error {health['hjb.err_pre']:.3e}"))
    if "layers" in res:
        cov = res["layers"]["trace.coverage_frac"]
        checks.append(("trace_coverage", cov >= workloads.COVERAGE_MIN,
                       f"{workloads.DOMINANT_LAYER[workload]} spans cover {cov:.4f} of run_s"))
    return checks, health


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "regimehjb", "__init__.py")):
        print("bench: src/regimehjb not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    from regimehjb import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("bench: need --seed >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".bench_out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    inputs = workloads.make_inputs(args.workload, args.seed)
    input_path = os.path.join(out_dir, "input.json")
    with open(input_path, "wb") as fh:
        fh.write(workloads.dump_inputs(inputs))
    cfg = cli.resolve_config(inputs["config"])
    if args.workload == "hjb-generic":
        oracle = workloads.generic_offsets(inputs["coeffs"], cfg["market"]["horizon_T"])
    else:
        oracle = workloads.merton_offsets(cfg["market"])
    checks = [("input:" + n, ok, d) for n, ok, d in workloads.input_checks(args.workload, inputs)]
    setups, samples, health, first = [], [], [], {}   # setups: (set-up, reference) pairs

    def measured(mode, n):
        res = run_child(root, args.workload, input_path, mode,
                        os.path.join(out_dir, f"{n:03d}-{mode}"))
        c, h = output_checks(args.workload, cfg, res,
                             os.path.join(out_dir, f"{n:03d}-{mode}"), first, oracle)
        checks.extend((f"child{n}:{name}", ok, d) for name, ok, d in c)
        health.append(h)
        return res

    try:
        # warm-up: byte-compiles the sources in a fresh checkout
        run_child(root, args.workload, input_path, "setup", os.path.join(out_dir, "000-setup"))
        modes = ("plain", "trace") if args.trace else ("plain",)
        min_samples = MIN_TRACED * len(modes) if args.trace else MIN_CHILDREN
        start, n, cycles = time.monotonic(), 0, []
        # stop once the next child would end further past --seconds than
        # stopping now falls short of it
        while (len(samples) < min_samples or time.monotonic() - start
               + 0.5 * statistics.median(cycles) < args.seconds):
            began = time.monotonic()
            mode = modes[len(samples) % len(modes)]
            if not args.trace:
                for _ in range(SETUP_PAIRS):
                    # alternate the order so neither side always follows the run
                    order = ("setup", "reference")[::1 if len(setups) % 2 else -1]
                    pair = {}
                    for kind in order:
                        n += 1
                        pair[kind] = run_child(root, args.workload, input_path, kind,
                                               os.path.join(out_dir, f"{n:03d}-{kind}"))["setup_s"]
                    setups.append((pair["setup"], pair["reference"]))
            n += 1
            res = measured(mode, n)
            samples.append((mode, res))
            cycles.append(time.monotonic() - began)
        if args.trace:
            alloc = measured("alloc", n + 1)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    plain = [r for m, r in samples if m == "plain"]
    traced = [r for m, r in samples if m == "trace"]
    med = statistics.median
    run_s = med(r["run_s"] for r in plain)
    if args.trace:
        values = {k: med(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        for k in ("hjb.peak_alloc_mb", "mc.peak_alloc_mb"):
            values[k] = alloc["layers"][k]
        values["cli.resolve_config_s"] = med(r["resolve_config_s"] for r in traced)
        for k in ("hjb.err_pre", "hjb.err_post", "mc.z_max"):
            values[k] = max((h[k] for h in health if k in h), default=0.0)
        values["trace.overhead_frac"] = med(r["run_s"] for r in traced) / run_s - 1.0
        declared = spec["per_layer"]
    else:
        values = {"run_s": run_s,
                  "setup_s": med(s / r for s, r in setups) * REFERENCE_SETUP_S,
                  "peak_rss_mb": med(r["peak_rss_mb"] for r in plain)}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failed = [c for c in checks if not c[1]]
    machine = machine_description(root)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "metrics": metrics,
              "samples": [{"mode": m, **r} for m, r in samples],
              "setup_pairs_s": [{"setup": s, "reference": r} for s, r in setups],
              "checks": [{"name": c[0], "pass": c[1], "detail": c[2]} for c in checks]}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)

    print("machine: " + json.dumps(machine))
    for name, _, d in failed:
        print(f"FAILED {name}: {d}")
    print(f"checks: {len(checks)} attempted, {len(failed)} failed, "
          f"fail_frac {len(failed) / len(checks):.6g} ratio")
    print(f"run_s samples: {len(plain)} untraced" + (f", {len(traced)} traced" if traced else ""))
    if setups:
        print(f"setup_s samples: {len(setups)} pairs; raw medians: set-up "
              f"{med(s for s, _ in setups):.6g} s, reference {med(r for _, r in setups):.6g} s")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
