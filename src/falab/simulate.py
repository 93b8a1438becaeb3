"""Multi-active-state simulation over byte streams and rule analytics.

Cycle convention: the active set recorded at cycle t is the set of states
active *after consuming* input[t].  START_OF_DATA states activate once,
before the first byte (the internal "cycle -1" set, exposed as
``SimulationTrace.initial_active`` but never reported from).  ALL_INPUT
states re-activate at the start of every cycle and are therefore part of
every recorded set.  Epsilon closure is applied after every step.

:class:`Simulator` builds a per-state byte-to-successors table once and
hands it to the stepping loop in ``_simkernel_py``, the one scan kernel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Automaton, StartKind
from .transform import close_over, epsilon_closures

from . import _simkernel_py


# Kept so that callers which record the kernel that ran keep working.
def available_kernels() -> tuple[str, ...]:
    return ("python",)


def default_kernel() -> str:
    return "python"


@dataclass(frozen=True)
class SimulationTrace:
    """Per-cycle activity of one automaton on one input.

    ``reports`` holds (cycle, state, pattern_id) triples, one per pattern
    per cycle: when several accept states of the same pattern are active
    in a cycle, only the smallest state id is reported.  ``pattern_id``
    comes from ``component_labels`` (None for unlabeled states).
    ``per_state_activation_count`` counts recorded cycles only; the
    pre-input activation lives in ``initial_active``.
    """

    cycles: int
    per_cycle_active: tuple[frozenset[int], ...]
    reports: tuple[tuple[int, int, int | None], ...]
    per_state_activation_count: dict[int, int]
    initial_active: frozenset[int]


class Simulator:
    """Reusable stepping program for one automaton.

    Building the program costs O(states x alphabet); reuse the instance
    when scanning several inputs.
    """

    def __init__(self, automaton: Automaton):
        self.automaton = automaton
        closures = epsilon_closures(automaton)
        adjacency = automaton.adjacency()
        step: list[dict[int, tuple[int, ...]]] = []
        for s in range(automaton.state_count):
            per_byte: dict[int, set[int]] = {}
            for cls, dst in adjacency[s]:
                closed = closures[dst]
                for b in cls.values():
                    per_byte.setdefault(b, set()).update(closed)
            step.append({b: tuple(t) for b, t in per_byte.items()})
        always = close_over(closures, (s for s, k in automaton.starts.items()
                                       if k is StartKind.ALL_INPUT))
        self._init = close_over(closures, automaton.starts) | always
        self._program = (step, self._init, always)

    def run(self, data: bytes) -> SimulationTrace:
        return self.run_counting(data)[0]

    def run_counting(self, data: bytes) -> tuple[SimulationTrace, int]:
        """Like run(), also returning the kernel's basic-operation count."""
        sets, work = _simkernel_py.step_stream(self._program, data)
        return self._assemble(sets), work

    def _assemble(self, sets) -> SimulationTrace:
        a = self.automaton
        labels = a.component_labels or {}
        reports: list[tuple[int, int, int | None]] = []
        counts: Counter[int] = Counter()
        for t, active in enumerate(sets):
            counts.update(active)
            hits = a.accepts.intersection(active)
            if hits:
                best: dict[int | None, int] = {}
                for s in hits:
                    pid = labels.get(s)
                    if pid not in best or s < best[pid]:
                        best[pid] = s
                for pid in sorted(best, key=lambda x: (x is None, x)):
                    reports.append((t, best[pid], pid))
        return SimulationTrace(
            cycles=len(sets),
            per_cycle_active=tuple(sets),
            reports=tuple(reports),
            per_state_activation_count=dict(counts),
            initial_active=self._init,
        )


def run(a: Automaton, data: bytes) -> SimulationTrace:
    """Simulate ``a`` over ``data``; empty input gives a zero-cycle trace."""
    return Simulator(a).run(data)


@dataclass(frozen=True)
class ActiveRuleStats:
    """Per-cycle counts of rules with at least one active state."""

    per_cycle_rule_count: tuple[int, ...]
    min_active: int
    max_active: int
    start_only_fraction: float


def _component_pattern_id(component: Automaton, index: int) -> int:
    labels = component.component_labels
    if labels:
        return next(iter(labels.values()))
    return index


def _rule_traces(components: list[Automaton],
                 data: bytes) -> list[SimulationTrace]:
    return [Simulator(c).run(data) for c in components]


def _start_only_average(components: list[Automaton],
                        traces: list[SimulationTrace], cycles: int) -> float:
    """Average over cycles of start-stalled / active rules, in percent.

    A rule is start-stalled in a cycle when it is active but no state
    beyond its start states is.  Cycles with no active rule are excluded;
    returns 0.0 if no cycle had one.
    """
    start_sets = [frozenset(c.starts) for c in components]
    total = 0.0
    counted = 0
    for t in range(cycles):
        active = 0
        stalled = 0
        for starts, trace in zip(start_sets, traces):
            states = trace.per_cycle_active[t]
            if states:
                active += 1
                if states <= starts:
                    stalled += 1
        if active:
            counted += 1
            total += stalled / active
    return 100.0 * total / counted if counted else 0.0


def active_rule_frequency(components: list[Automaton],
                          data: bytes) -> ActiveRuleStats:
    """Count rules with >= 1 active state per input cycle.

    Components must carry distinct pattern ids (their start states count
    as active states).
    """
    ids = [_component_pattern_id(c, i) for i, c in enumerate(components)]
    if len(set(ids)) != len(ids):
        raise ValueError("components must carry distinct pattern ids")
    traces = _rule_traces(components, data)
    per_cycle = tuple(
        sum(1 for trace in traces if trace.per_cycle_active[t])
        for t in range(len(data)))
    return ActiveRuleStats(
        per_cycle_rule_count=per_cycle,
        min_active=min(per_cycle, default=0),
        max_active=max(per_cycle, default=0),
        start_only_fraction=_start_only_average(components, traces, len(data)),
    )


def start_only_fraction(components: list[Automaton], data: bytes) -> float:
    """Average percentage of active rules stuck at their start state.

    Each component must have exactly one start state.
    """
    bad = [i for i, c in enumerate(components) if len(c.starts) != 1]
    if bad:
        raise ValueError(f"components {bad} must have exactly one start state")
    traces = _rule_traces(components, data)
    return _start_only_average(components, traces, len(data))


def throughput(input_size_bits: float, scan_time_seconds: float) -> float:
    """Scan rate in Gbps: bits / 1e9 / seconds."""
    if scan_time_seconds <= 0:
        raise ValueError("scan time must be positive")
    if input_size_bits < 0:
        raise ValueError("input size cannot be negative")
    return input_size_bits / 1e9 / scan_time_seconds
