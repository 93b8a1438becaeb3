"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each falab module from outside
the package.  A wrapped name is replaced in every ``falab`` module that
holds it, so calls made inside the package (``experiment`` calling the
``determinize`` it imported, ``minimize_brzozowski`` calling
``determinize``) are recorded too.  Spans (name, phase, start, end,
parent) stay in memory and are written out when the run ends.

Per-layer values describe one set-up plus one timed operation: the traced
set-up's totals plus the traced operations' totals divided by their count.
Times are self times: a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import falab.cli  # noqa: F401  (loads every module the targets name)


def _count_states(counters, args, result):
    counters["transform.determinize.states"] += result.state_count


def _count_hopcroft(counters, args, result):
    counters["transform.minimize_hopcroft.states_in"] += args[0].state_count
    counters["transform.minimize_hopcroft.states_out"] += result.state_count


def _count_optimize(counters, args, result):
    counters["transform.optimize_nfa.states_in"] += args[0].state_count
    counters["transform.optimize_nfa.states_out"] += result.state_count


def _count_components(counters, args, result):
    counters["transform.connected_components.components"] += len(result)


def _count_rules(counters, args, result):
    counters["simulate.active_rule_frequency.rules"] += len(args[0])


def _count_kernel(counters, args, result):
    counters["simulate.kernel.work"] += result[1]
    counters["simulate.kernel.bytes"] += len(args[1])


def _count_trace(counters, args, result):
    counters["simulate.trace.active"] += sum(map(len, result.per_cycle_active))
    counters["simulate.trace.cycles"] += result.cycles
    counters["simulate.trace.reports"] += len(result.reports)


# (module, attribute, span name, counter); an attribute "Class.method"
# wraps the method on the class itself.
TARGETS = [
    ("falab.cli", "main", "cli.main", None),
    ("falab.documents", "load_pattern_set", "documents.load_pattern_set", None),
    ("falab.documents", "save_pattern_set", "documents.save_pattern_set", None),
    ("falab.experiment", "per_pattern_experiment",
     "experiment.run_experiment", None),
    ("falab.experiment", "incremental_merge_experiment",
     "experiment.run_experiment", None),
    ("falab.experiment", "classify_growth", "experiment.classify_growth", None),
    ("falab.experiment", "emit_report", "experiment.emit_report", None),
    ("falab.generators", "compile_pattern", "generators.compile_pattern", None),
    ("falab.transform", "remove_epsilon", "transform.remove_epsilon", None),
    ("falab.transform", "trim", "transform.trim", None),
    ("falab.transform", "optimize_nfa", "transform.optimize_nfa",
     _count_optimize),
    ("falab.transform", "determinize", "transform.determinize", _count_states),
    ("falab.transform", "minimize_brzozowski",
     "transform.minimize_brzozowski", None),
    ("falab.transform", "minimize_hopcroft", "transform.minimize_hopcroft",
     _count_hopcroft),
    ("falab.transform", "equivalent", "transform.equivalent", None),
    ("falab.transform", "merge_patterns", "transform.merge_patterns", None),
    ("falab.transform", "connected_components",
     "transform.connected_components", _count_components),
    ("falab.simulate", "Simulator.__init__", "simulate.Simulator.build", None),
    ("falab.simulate", "Simulator.run", "simulate.Simulator.run",
     _count_trace),
    ("falab.simulate", "active_rule_frequency",
     "simulate.active_rule_frequency", _count_rules),
    # Simulator looks the kernel up through its module on every scan.
    ("falab._simkernel_py", "step_stream", "simulate.kernel", _count_kernel),
    ("falab._simkernel", "step_stream", "simulate.kernel", _count_kernel),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})

# Per-layer metrics: (name, unit, better).  Every one is emitted on every
# workload; a layer a workload never reaches reads 0.
PER_LAYER = [
    ("transform.determinize.s", "s", "lower"),
    ("transform.determinize.calls", "count", "lower"),
    ("transform.determinize.states", "count", "lower"),
    ("transform.determinize.states_per_s", "1/s", "higher"),
    ("transform.minimize_brzozowski.s", "s", "lower"),
    ("transform.minimize_brzozowski.calls", "count", "lower"),
    ("transform.minimize_hopcroft.s", "s", "lower"),
    ("transform.minimize_hopcroft.states_in", "count", "lower"),
    ("transform.minimize_hopcroft.states_out", "count", "lower"),
    ("transform.equivalent.s", "s", "lower"),
    ("transform.equivalent.calls", "count", "lower"),
    ("transform.minimal_over_dfa", "ratio", "higher"),
    ("generators.compile_pattern.s", "s", "lower"),
    ("generators.compile_pattern.calls", "count", "lower"),
    ("transform.remove_epsilon.s", "s", "lower"),
    ("transform.trim.s", "s", "lower"),
    ("transform.optimize_nfa.s", "s", "lower"),
    ("transform.optimize_nfa.states_out_ratio", "ratio", "lower"),
    ("experiment.run_experiment.s", "s", "lower"),
    ("experiment.classify_growth.s", "s", "lower"),
    ("experiment.emit_report.s", "s", "lower"),
    ("documents.load_pattern_set.s", "s", "lower"),
    ("documents.save_pattern_set.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("simulate.Simulator.build.s", "s", "lower"),
    ("simulate.Simulator.build.calls", "count", "lower"),
    ("simulate.kernel.s", "s", "lower"),
    ("simulate.kernel.work", "count", "lower"),
    ("simulate.kernel.bytes", "count", "lower"),
    ("simulate.kernel.work_per_byte", "ratio", "lower"),
    ("simulate.Simulator.run.s", "s", "lower"),
    ("simulate.trace.mean_active", "count", "lower"),
    ("simulate.trace.reports", "count", "lower"),
    ("simulate.active_rule_frequency.s", "s", "lower"),
    ("simulate.active_rule_frequency.rules", "count", "lower"),
    ("transform.merge_patterns.s", "s", "lower"),
    ("transform.connected_components.s", "s", "lower"),
    ("transform.connected_components.components", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory spans and counters, split into a set-up and an ops phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, phase, start, end, parent]
        self.counters = {"setup": defaultdict(float), "ops": defaultdict(float)}
        self.phase = "setup"
        self._stack: list[int] = []

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, tracer.phase, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            counters = tracer.counters[tracer.phase]
            counters[name + ".calls"] += 1
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, phase: str):
        """Wrap every target for the duration of the block."""
        self.phase = phase
        undo = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = sys.modules.get(module_name)
                if module is None:  # the compiled kernel is optional
                    continue
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(original, name, count))
                    undo.append((cls, method, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, name, count)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "falab"
                                           or mod_name.startswith("falab.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per phase, per span name: summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {"setup": defaultdict(float), "ops": defaultdict(float)}
        for i, (name, phase, start, end, parent) in enumerate(self.spans):
            out[phase][name] += (end - start) - child[i]
        return out

    def layer_metrics(self, traced_ops: int, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric for one set-up plus one operation."""
        selfs = self.self_times()
        ops = max(traced_ops, 1)

        def per_op(table: dict, key: str) -> float:
            return table["setup"][key] + table["ops"][key] / ops

        keys = set(self.counters["setup"]) | set(self.counters["ops"])
        c = defaultdict(float, {key: per_op(self.counters, key) for key in keys})
        s = {name: per_op(selfs, name) for name in SPAN_NAMES}
        values = {
            "transform.minimal_over_dfa": _ratio(
                c["transform.minimize_hopcroft.states_out"],
                c["transform.minimize_hopcroft.states_in"]),
            "transform.determinize.states_per_s": _ratio(
                c["transform.determinize.states"], s["transform.determinize"]),
            "transform.optimize_nfa.states_out_ratio": _ratio(
                c["transform.optimize_nfa.states_out"],
                c["transform.optimize_nfa.states_in"]),
            "simulate.kernel.work_per_byte": _ratio(
                c["simulate.kernel.work"], c["simulate.kernel.bytes"]),
            "simulate.trace.mean_active": _ratio(
                c["simulate.trace.active"], c["simulate.trace.cycles"]),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".s"):
                value = s[name[:-2]]
            else:
                value = c[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self) -> dict:
        """Spans and raw counters, for writing out when the run ends."""
        return {
            "spans": [{"name": n, "phase": p, "start": a, "end": b,
                       "parent": parent}
                      for n, p, a, b, parent in self.spans],
            "counters": {phase: dict(table)
                         for phase, table in self.counters.items()},
        }

