"""Multi-active-state simulation over byte streams and rule analytics.

Cycle convention: the active set recorded at cycle t is the set of states
active *after consuming* input[t].  START_OF_DATA states activate once,
before the first byte (the internal "cycle -1" set, exposed as
``SimulationTrace.initial_active`` but never reported from).  ALL_INPUT
states re-activate at the start of every cycle and are therefore part of
every recorded set.  Epsilon closure is applied after every step.

:class:`Simulator` builds its program once, as flat ``array('i')``
buffers of byte-class successors (the layout is specified in
``_simkernel_py``, the builder is ``transform._program``), and hands it,
with the input translated to class indices, to the stepping kernel that
``transform`` loads: the compiled ``_simkernel`` when it was built for the
same program ``FORMAT``, and otherwise ``_simkernel_py``, whose
plain-Python loop is the specification both follow.  The compiled kernel
steps the active set as a bitset: per byte, a few masked shifts of its
words plus the rows of the states whose moves fit no shift, rather than
one write per successor reached.  Each call builds the shifts of a class
from the program once its activity on the class has cost about as much,
so a short or dying scan builds none.  Its per-cycle records also read
the set a 64-bit word at a time, not a state at a time: counts and row
lengths from popcounts, activations through bit-sliced counters, and
rule counts from each word's runs of one rule's states.

The kernel returns the per-cycle active counts, the per-state activation
counts and the reports, and keeps no per-cycle sets.  A trace's
``per_cycle_active`` is recomputed on every read: it replays the scan
through the kernel's ``active_sets``, ``WINDOW`` cycles at a time, so
memory stays flat as the input grows.

:func:`active_rule_frequency` runs the kernel in its counting mode, which
yields per-cycle rule counts, on a program it builds once per rule set
and reuses while the rules compare equal.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate

from . import transform
from .core import ALPHABET_SIZE, Automaton, SymbolClass
from .transform import _program, merge_patterns


def available_kernels() -> tuple[str, ...]:
    """Names of the scan kernels this installation has, the default first."""
    return ("python",) if transform._simkernel is None else ("c", "python")


def default_kernel() -> str:
    """Name of the kernel :class:`Simulator` scans with."""
    return available_kernels()[0]


# Cycles per active_sets call when a trace replays its scan: memory stays
# bounded by one window of sets, however long the input.
WINDOW = 32


@dataclass(frozen=True)
class SimulationTrace:
    """Per-cycle activity of one automaton on one input.

    ``per_cycle_count[t]`` is the number of states active at cycle ``t``.
    ``reports`` holds (cycle, state, pattern_id) triples, one per pattern
    per cycle, each cycle's in ascending state order: when several accept
    states of the same pattern are active in a cycle, only the smallest
    state id is reported.  ``pattern_id`` comes from ``component_labels``
    (None for unlabeled states).
    ``per_state_activation_count`` counts recorded cycles only; the
    pre-input activation lives in ``initial_active``.

    The scan keeps no per-cycle sets.  ``per_cycle_active`` replays it on
    every read and yields each cycle's active frozenset, computed in
    windows of ``WINDOW`` cycles, so memory stays flat as the input grows.
    """

    cycles: int
    per_cycle_count: tuple[int, ...]
    reports: tuple[tuple[int, int, int | None], ...]
    per_state_activation_count: dict[int, int]
    initial_active: frozenset[int]
    # What per_cycle_active replays: the program and the class indices.
    _program: tuple = field(repr=False)
    _classes: bytes = field(repr=False)

    @property
    def per_cycle_active(self) -> Iterator[frozenset[int]]:
        """Each cycle's active set, recomputed by the kernel on every read."""
        return _replay(self._program, self._classes)


def _replay(program: tuple, classes: bytes) -> Iterator[frozenset[int]]:
    for lo in range(0, len(classes), WINDOW):
        sets = transform._kernel.active_sets(program,
                                             classes[lo:lo + WINDOW])
        yield from sets
        program = program[:4] + (array("i", sets[-1]),) + program[5:]


class Simulator:
    """Reusable stepping program for one automaton.

    Byte classes are the atoms of ``partition_masks`` over the edge
    classes, in ascending order; bytes that no edge reads map to a class
    with no successors.  Building the program costs O(edges x the classes
    inside each edge's class + states x classes); reuse the instance when
    scanning several inputs.
    """

    def __init__(self, automaton: Automaton):
        atoms, self._labels, self._program = _program(automaton)
        class_of = [len(atoms)] * ALPHABET_SIZE
        for index, atom in enumerate(atoms):
            for b in SymbolClass(atom).values():
                class_of[b] = index
        self._table = bytes(class_of)
        self._init = frozenset(self._program[4])

    def run(self, data: bytes) -> SimulationTrace:
        classes = memoryview(data).tobytes().translate(self._table)
        (counts, activation, reports), _ = transform._kernel.step_stream(
            self._program, classes)
        report = self._program[6]
        return SimulationTrace(
            cycles=len(classes),
            per_cycle_count=tuple(counts),
            reports=tuple((t, s, self._labels[report[s]])
                          for t, s in reports),
            per_state_activation_count={s: c for s, c in enumerate(activation)
                                        if c},
            initial_active=self._init,
            _program=self._program,
            _classes=classes,
        )


def run(a: Automaton, data: bytes) -> SimulationTrace:
    """Simulate ``a`` over ``data``, any bytes-like object (a str raises
    TypeError); empty input gives a zero-cycle trace."""
    return Simulator(a).run(data)


@dataclass(frozen=True)
class ActiveRuleStats:
    """Per-cycle counts of rules with at least one active state.

    ``start_only_fraction`` averages, over cycles with an active rule, the
    percentage of active rules with no active state outside their raw
    ``starts``.  Raw, not epsilon-closed: a rule whose start has epsilon
    edges (a Levenshtein rule's deletions) is never start-stalled.
    """

    per_cycle_rule_count: tuple[int, ...]
    min_active: int
    max_active: int
    start_only_fraction: float


# The rules active_rule_frequency scanned last, with their program:
# (components, Simulator, rules).
_last_rules: tuple | None = None


def _rule_program(components: list[Automaton]) -> tuple:
    """The merged Simulator and counting-mode rules of ``components``.

    The last one built is kept and reused while the components compare
    equal (identical objects compare without a field walk).
    """
    global _last_rules
    key = tuple(components)
    if _last_rules is None or _last_rules[0] != key:
        merged = merge_patterns(components)
        # Rules as dense indices; the unlabeled shared start is one of its
        # own.
        labels = [merged.component_labels.get(s)
                  for s in range(merged.state_count)]
        index = {label: i for i, label in enumerate(dict.fromkeys(labels))}
        offsets = accumulate((c.state_count for c in components), initial=0)
        starts = {s + off for c, off in zip(components, offsets)
                  for s in c.starts}
        rules = (array("i", [index[label] for label in labels]),
                 bytes(s in starts for s in range(merged.state_count)))
        _last_rules = (key, Simulator(merged), rules)
    return _last_rules[1:]


def active_rule_frequency(components: list[Automaton],
                          data: bytes) -> ActiveRuleStats:
    """Count rules with >= 1 active state per input cycle.

    Components must carry distinct pattern ids (their start states count
    as active states), and ``data`` may be any bytes-like object.  One
    scan of the rules' union gives every count: a rule is active in a
    cycle when one of its states is.
    """
    ids = [next(iter(c.component_labels.values())) if c.component_labels
           else index for index, c in enumerate(components)]
    if len(set(ids)) != len(ids):
        raise ValueError("components must carry distinct pattern ids")
    data = memoryview(data).tobytes()
    if not components:
        return ActiveRuleStats((0,) * len(data), 0, 0, 0.0)
    sim, rules = _rule_program(components)
    pairs, _ = transform._kernel.step_stream(
        sim._program, data.translate(sim._table), rules)
    per_cycle = []
    total = 0.0
    counted = 0
    for active_rules, moving_rules in pairs:
        per_cycle.append(active_rules)
        if active_rules:
            counted += 1
            total += (active_rules - moving_rules) / active_rules
    return ActiveRuleStats(
        per_cycle_rule_count=tuple(per_cycle),
        min_active=min(per_cycle, default=0),
        max_active=max(per_cycle, default=0),
        start_only_fraction=100.0 * total / counted if counted else 0.0,
    )
