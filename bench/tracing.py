"""Spans recorded from outside the program, around calls into each module.

The tracer replaces public functions at their module-global call sites
(``regimehjb.cli.solve_system``, ``regimehjb.hjb.pre_hamiltonian``, ...)
with wrappers that record one span per call: name, start, end and the
index of the enclosing span. Spans stay in memory until the run ends.
Private ``_`` helpers are never wrapped, so the derivative split inside a
Hamiltonian and the draws-versus-reduction split inside ``estimate`` and
``sweep`` are not visible here; they need spans inside the program.
"""

from __future__ import annotations

import time
import tracemalloc

# (module, attribute, span name); the span name's prefix is the layer
WRAPPED = (
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "cmd_sweep", "cli.cmd_sweep"),
    ("cli", "render_report", "cli.render_report"),
    ("cli", "write_sweep_csv", "cli.write_sweep_csv"),
    ("cli", "build_market", "model.build_market"),
    ("cli", "build_loss", "model.build_loss"),
    ("cli", "build_variant", "model.build_variant"),
    ("cli", "build_ode", "model.build_ode"),
    ("cli", "build_grid", "model.build_grid"),
    ("cli", "build_mc", "model.build_mc"),
    ("cli", "merton_as_generic", "model.merton_as_generic"),
    ("cli", "solve_system", "hjb.solve_system"),
    ("cli", "estimate", "mc.estimate"),
    ("cli", "sweep", "mc.sweep"),
    ("cli", "solve_f_backward", "odesolve.solve_f_backward"),
    ("cli", "f_closed_form", "closedform.f_closed_form"),
    ("cli", "expected_log_utility_exact", "closedform.expected_log_utility_exact"),
    ("cli", "optimal_weight", "closedform.optimal_weight"),
    ("hjb", "solve_system", "hjb.solve_system"),
    ("hjb", "solve_after", "hjb.solve_after"),
    ("hjb", "solve_pre", "hjb.solve_pre"),
    ("hjb", "pre_hamiltonian", "hjb.pre_hamiltonian"),
    ("hjb", "post_hamiltonian", "hjb.post_hamiltonian"),
    ("hjb", "validate_grid_for", "hjb.validate_grid_for"),
    ("montecarlo", "simulate_terminal_log_wealth", "mc.simulate_terminal_log_wealth"),
    ("montecarlo", "sample_default_time", "mc.sample_default_time"),
)

# outermost entry points of a layer: peak traced allocation is measured
# across each call
ALLOC_SPANS = {"hjb.solve_system": "hjb", "mc.estimate": "mc", "mc.sweep": "mc"}


class Tracer:
    """Records spans of wrapped calls; ``restore`` puts the originals back."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index or -1]
        self.cells = 0           # Hamiltonian mesh cells evaluated
        self.policy_paths = 0    # terminal-law evaluations (paths x policies)
        self.ode_steps = 0
        self.peak_alloc = {}     # layer -> peak bytes above the call's start
        self.surface = None      # last ValueSurface returned by solve_system
        self._stack = []
        self._patched = []

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        alloc_layer = ALLOC_SPANS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            if alloc_layer and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter_ns()
                stack.pop()
            if alloc_layer and tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_alloc[alloc_layer] = max(self.peak_alloc.get(alloc_layer, 0), peak)
            self._count(name, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, out):
        if name in ("hjb.pre_hamiltonian", "hjb.post_hamiltonian"):
            self.cells += out.size
        elif name == "mc.simulate_terminal_log_wealth":
            self.policy_paths += getattr(out, "size", 1)
        elif name == "odesolve.solve_f_backward":
            self.ode_steps += out.times.size - 1
        elif name == "hjb.solve_system":
            self.surface = out

    def install(self, modules: dict) -> None:
        """Wrap every entry of WRAPPED; ``modules`` maps short names to modules."""
        for mod_name, attr, name in WRAPPED:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children (ns)."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def outermost_ns(spans, layer: str) -> int:
    """Summed duration of the layer's spans whose parent is in another layer."""
    return sum(end - start for name, start, end, parent in spans
               if layer_of(name) == layer
               and (parent < 0 or layer_of(spans[parent][0]) != layer))


def summarize(tracer: Tracer, run_s: float, dominant_layer: str) -> dict:
    """Per-layer metrics of one traced run (seconds, counts, ratios)."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s, calls = {}, {}
    for (name, *_), s in zip(spans, selfs):
        self_s[name] = self_s.get(name, 0) + s * 1e-9
        calls[name] = calls.get(name, 0) + 1

    def total(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    hjb_s = outermost_ns(spans, "hjb") * 1e-9
    mc_s = outermost_ns(spans, "mc") * 1e-9
    mib = 1.0 / (1024 * 1024)
    return {
        "hjb.pre_ham_s": total("hjb.pre_hamiltonian"),
        "hjb.pre_ham_calls": calls.get("hjb.pre_hamiltonian", 0),
        "hjb.post_ham_s": total("hjb.post_hamiltonian"),
        "hjb.post_select_s": total("hjb.solve_after"),
        "hjb.pre_select_s": total("hjb.solve_pre"),
        "hjb.validate_calls": calls.get("hjb.validate_grid_for", 0),
        "hjb.validate_s": total("hjb.validate_grid_for"),
        "hjb.cells": tracer.cells,
        "hjb.cells_per_s": tracer.cells / hjb_s if hjb_s else 0.0,
        "hjb.peak_alloc_mb": tracer.peak_alloc.get("hjb", 0) * mib,
        "mc.map_s": total("mc.simulate_terminal_log_wealth"),
        "mc.map_calls": calls.get("mc.simulate_terminal_log_wealth", 0),
        "mc.default_time_s": total("mc.sample_default_time"),
        "mc.draw_reduce_s": total("mc.estimate") + total("mc.sweep"),
        "mc.policy_paths_per_s": tracer.policy_paths / mc_s if mc_s else 0.0,
        "mc.peak_alloc_mb": tracer.peak_alloc.get("mc", 0) * mib,
        "odesolve.s": total("odesolve."),
        "odesolve.steps": tracer.ode_steps,
        "closedform.s": total("closedform."),
        "closedform.calls": sum(v for k, v in calls.items() if k.startswith("closedform.")),
        "cli.self_s": total("cli."),
        "model.build_s": total("model."),
        "trace.coverage_frac": outermost_ns(spans, dominant_layer) * 1e-9 / run_s,
    }
