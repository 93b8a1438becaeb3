import subprocess
import sys
import sysconfig
import tracemalloc
from array import array
from collections import Counter, deque
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from falab import _simkernel_py, simulate, transform
from falab.core import Automaton, StartKind, SymbolClass
from falab.generators import SplitMix64, gen_levenshtein
from falab.regex import compile_regex
from falab.simulate import (Simulator, active_rule_frequency,
                            available_kernels, default_kernel, run)
from falab.transform import accepts, connected_components, merge_patterns

from conftest import SOURCE, SRC, c_compiler
from corpus import random_regex

SOD = StartKind.START_OF_DATA
ALL = StartKind.ALL_INPUT
KINDS = (SOD, ALL)
ALPHABET = b"abc"


@st.composite
def automata(draw):
    """Small NFAs with epsilon edges, mixed starts and some labeled states.

    Edge classes are subsets of ``ALPHABET``, their complements, or the
    full byte range.
    """
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    subset = st.sets(st.sampled_from(ALPHABET), min_size=1).map(SymbolClass.of)
    cls = st.one_of(subset, subset.map(SymbolClass.complement),
                    st.just(SymbolClass.full()))
    edges = draw(st.lists(st.tuples(state, cls, state), max_size=10))
    eps = draw(st.lists(st.tuples(state, state), max_size=4))
    starts = draw(st.dictionaries(state, st.sampled_from(KINDS), min_size=1))
    finals = draw(st.frozensets(state))
    labels = draw(st.dictionaries(state, st.integers(0, 2)))
    return Automaton(state_count=n, edges=tuple(edges),
                     epsilon_edges=tuple(eps), starts=starts, accepts=finals,
                     component_labels=labels)


# "d", 0x00 and 0xFF lie outside every subset of ALPHABET, so on most
# automata they empty all but the every-cycle set.
INPUT_BYTES = b"abcd\x00\xff"
inputs = st.binary(max_size=8).map(
    lambda b: bytes(INPUT_BYTES[x % len(INPUT_BYTES)] for x in b))


def closure(a: Automaton, states) -> set[int]:
    """``states`` and every state their epsilon edges reach."""
    seen = set(states)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for src, dst in a.epsilon_edges:
            if src == s and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def reference_active_sets(a: Automaton, data: bytes) -> list[frozenset[int]]:
    """Per-cycle active sets by direct search over the edge lists."""
    always = closure(a, (s for s, k in a.starts.items() if k is ALL))
    active = closure(a, a.starts) | always
    out = []
    for byte in data:
        active = closure(a, (d for s, c, d in a.edges
                             if s in active and byte in c)) | always
        out.append(frozenset(active))
    return out


def reference_summary(a: Automaton, data: bytes):
    """(per-cycle counts, activation counts, reports, work) from the
    reference sets.

    Work counts, per cycle, each previously active state's closed
    successors on the byte plus the every-cycle states.  Reports keep the
    smallest active accepting state per label, labels in order with
    unlabeled last.
    """
    sets = reference_active_sets(a, data)
    labels = a.component_labels or {}
    always = closure(a, (s for s, k in a.starts.items() if k is ALL))
    previous = [closure(a, a.starts) | always] + sets[:-1]
    work = sum(len(always) + sum(
        len(closure(a, (d for src, c, d in a.edges if src == s and byte in c)))
        for s in before) for before, byte in zip(previous, data))
    reports = []
    for t, active in enumerate(sets):
        best = {}
        for s in sorted(active & a.accepts):
            best.setdefault(labels.get(s), s)
        reports.extend((t, best[pid], pid)
                       for pid in sorted(best, key=lambda x: (x is None, x)))
    activation = Counter(s for active in sets for s in active)
    return tuple(map(len, sets)), dict(activation), tuple(reports), work


def kernel_work(sim: Simulator, data: bytes) -> int:
    """The operation count of the scan ``sim.run(data)`` makes."""
    return transform._kernel.step_stream(sim._program,
                                         data.translate(sim._table))[1]


def regex_rules(seed: int, kind: StartKind, count: int = 3) -> list[Automaton]:
    rng = SplitMix64(seed)
    return [compile_regex(random_regex(rng, 2, 3), kind) for _ in range(count)]


def streams(seed: int, count: int = 4, length: int = 12) -> list[bytes]:
    rng = SplitMix64(seed ^ 0xDA7A)
    return [bytes(b"abcd"[rng.below(4)] for _ in range(length))
            for _ in range(count)]


def chain(kind: StartKind) -> Automaton:
    """0 -a-> 1 -b-> 2, accepting 2."""
    return Automaton(state_count=3,
                     edges=((0, SymbolClass.of(b"a"), 1),
                            (1, SymbolClass.of(b"b"), 2)),
                     starts={0: kind}, accepts=frozenset([2]))


def run_tests(kernel: str):
    """TestRun for the scan kernel named ``kernel`` (see conftest)."""

    @pytest.mark.usefixtures("class_kernel")
    class TestRun:
        KERNEL = kernel

        @settings(max_examples=150, deadline=None)
        @given(automata(), inputs)
        def test_reports_match_accepts_at_every_cycle(self, a, data):
            trace = run(a, data)
            reported = {t for t, _, _ in trace.reports}
            assert trace.cycles == len(data)
            for t in range(len(data)):
                assert (t in reported) == accepts(a, data[:t + 1]), t

        @settings(max_examples=150, deadline=None)
        @given(automata(), inputs)
        def test_active_sets_match_reference(self, a, data):
            trace = run(a, data)
            sets = list(trace.per_cycle_active)
            assert sets == reference_active_sets(a, data)
            assert all(isinstance(s, frozenset) for s in sets)

        @settings(max_examples=100, deadline=None)
        @given(automata(), inputs)
        def test_activation_counts_agree_with_active_sets(self, a, data):
            trace = run(a, data)
            expected = Counter(s for active in trace.per_cycle_active
                               for s in active)
            assert trace.per_state_activation_count == dict(expected)

        @settings(max_examples=150, deadline=None)
        @given(automata(), inputs)
        def test_summary_matches_reference(self, a, data):
            sim = Simulator(a)
            trace = sim.run(data)
            counts, activation, reports, work = reference_summary(a, data)
            assert trace.per_cycle_count == counts
            assert trace.per_state_activation_count == activation
            assert trace.reports == reports
            assert kernel_work(sim, data) == work
            assert ({t for t, _, _ in trace.reports}
                    == {t for t in range(len(data))
                        if accepts(a, data[:t + 1])})

        @settings(max_examples=60, deadline=None)
        @given(automata())
        def test_empty_input_is_a_zero_cycle_trace(self, a):
            trace = run(a, b"")
            assert trace.cycles == 0
            assert trace.per_cycle_count == ()
            assert list(trace.per_cycle_active) == []
            assert trace.reports == ()
            assert trace.per_state_activation_count == {}
            assert trace.initial_active >= frozenset(a.starts)

        @settings(max_examples=40, deadline=None)
        @given(st.integers(0, 2**32), st.sampled_from(KINDS))
        def test_reports_carry_the_pattern_that_accepts(self, seed, kind):
            rules = regex_rules(seed, kind)
            ids = [10, 20, 30]
            sim = Simulator(merge_patterns(rules, ids))
            for data in streams(seed):
                trace = sim.run(data)
                assert sim.run(data) == trace  # the program is reusable
                for t in range(len(data)):
                    got = {pid for c, _, pid in trace.reports if c == t}
                    want = {pid for pid, rule in zip(ids, rules)
                            if accepts(rule, data[:t + 1])}
                    assert got == want, (t, data)

        @pytest.mark.parametrize("kind, data, cycles, work", [
            # one successor per byte, plus the every-cycle start when
            # unanchored
            (SOD, b"ab", [{1}, {2}], 2),
            (ALL, b"ab", [{0, 1}, {0, 2}], 4),
            (SOD, b"ba", [set(), set()], 0),
        ])
        def test_kernel_work_count(self, kind, data, cycles, work):
            sim = Simulator(chain(kind))
            trace = sim.run(data)
            assert [set(s) for s in trace.per_cycle_active] == cycles
            assert trace.per_cycle_count == tuple(map(len, cycles))
            assert kernel_work(sim, data) == work

        def test_classes_covering_every_byte(self):
            # 256 singleton edges plus a full edge: 256 byte classes, no byte
            # left outside every class.
            edges = [(0, SymbolClass.of([b]), b % 2 + 1) for b in range(256)]
            edges.append((1, SymbolClass.full(), 0))
            a = Automaton(state_count=3, edges=tuple(edges), starts={0: ALL},
                          accepts=frozenset([2]))
            data = bytes([0, 1, 255, 254, 7, 0])
            trace = run(a, data)
            assert (list(trace.per_cycle_active)
                    == reference_active_sets(a, data))
            assert ({t for t, _, _ in trace.reports}
                    == {t for t in range(len(data))
                        if accepts(a, data[:t + 1])})

        @pytest.mark.parametrize("kind", KINDS)
        def test_automaton_without_edges(self, kind):
            a = Automaton(state_count=2, epsilon_edges=((0, 1),),
                          starts={0: kind}, accepts=frozenset([1]))
            data = bytes([0, 97, 255])
            trace = run(a, data)
            assert (list(trace.per_cycle_active)
                    == reference_active_sets(a, data))
            assert [t for t, _, _ in trace.reports] == (
                [0, 1, 2] if kind is ALL else [])

        def test_reports_smallest_accepting_state_per_pattern(self):
            a = Automaton(state_count=3,
                          edges=((0, SymbolClass.of(b"a"), 1),
                                 (0, SymbolClass.of(b"a"), 2)),
                          starts={0: SOD}, accepts=frozenset([1, 2]))
            assert run(a, b"a").reports == ((0, 1, None),)

    return TestRun


TestRun = run_tests("python")
TestRunCompiled = run_tests("c")


def reference_rule_stats(components: list[Automaton], data: bytes):
    """Rule statistics from one scan per rule.

    Returns (per-cycle active-rule counts, start-only percentage): a rule
    is active when its own scan has an active state, and start-stalled
    when every active state is one of its raw start states.
    """
    sets = [list(run(c, data).per_cycle_active) for c in components]
    per_cycle = []
    total = 0.0
    counted = 0
    for t in range(len(data)):
        active = [s[t] for s, c in zip(sets, components) if s[t]]
        stalled = [c for s, c in zip(sets, components)
                   if s[t] and s[t] <= frozenset(c.starts)]
        per_cycle.append(len(active))
        if active:
            counted += 1
            total += len(stalled) / len(active)
    return tuple(per_cycle), (100.0 * total / counted if counted else 0.0)


def active_rule_tests(kernel: str):
    """TestActiveRules for the scan kernel named ``kernel``."""

    @pytest.mark.usefixtures("class_kernel")
    class TestActiveRules:
        KERNEL = kernel

        @settings(max_examples=30, deadline=None)
        @given(st.integers(0, 2**32), st.sampled_from(KINDS))
        def test_regex_rules_match_one_scan_per_rule(self, seed, kind):
            rules = connected_components(
                merge_patterns(regex_rules(seed, kind), [7, 3, 5]))
            for data in streams(seed):
                per_cycle, start_only = reference_rule_stats(rules, data)
                stats = active_rule_frequency(rules, data)
                assert stats.per_cycle_rule_count == per_cycle
                assert stats.min_active == min(per_cycle)
                assert stats.max_active == max(per_cycle)
                assert stats.start_only_fraction == start_only

        @pytest.mark.parametrize("kind", KINDS)
        def test_levenshtein_rules_match_one_scan_per_rule(self, kind):
            rules = [gen_levenshtein(p, d, kind)
                     for p, d in ((b"abc", 1), (b"ca", 1), (b"bcab", 2))]
            for data in streams(17, count=3, length=20):
                per_cycle, start_only = reference_rule_stats(rules, data)
                stats = active_rule_frequency(rules, data)
                assert stats.per_cycle_rule_count == per_cycle
                assert (stats.min_active, stats.max_active) == (min(per_cycle),
                                                                max(per_cycle))
                assert stats.start_only_fraction == start_only

        def test_levenshtein_rule_is_never_start_stalled(self):
            # The start's deletion epsilon edge activates a second state every
            # cycle, so the active set is never within the raw starts.
            rule = gen_levenshtein(b"abc", 1, ALL)
            stats = active_rule_frequency([rule], b"dddd")
            assert stats.per_cycle_rule_count == (1, 1, 1, 1)
            assert stats.start_only_fraction == 0.0

        @settings(max_examples=40, deadline=None)
        @given(st.integers(0, 2**32), st.sampled_from(KINDS))
        def test_counts_equal_labels_active_in_merged_scan(self, seed, kind):
            rules = regex_rules(seed, kind)
            merged = merge_patterns(rules)
            labels = merged.component_labels
            for data in streams(seed):
                expected = tuple(
                    len({labels[s] for s in active if s in labels})
                    for active in run(merged, data).per_cycle_active)
                stats = active_rule_frequency(rules, data)
                assert stats.per_cycle_rule_count == expected
                assert stats.min_active == min(expected)
                assert stats.max_active == max(expected)

        @settings(max_examples=40, deadline=None)
        @given(st.integers(0, 2**32))
        def test_connected_components_of_an_all_input_merge(self, seed):
            merged = merge_patterns(regex_rules(seed, ALL), [10, 20, 30])
            components = connected_components(merged)
            labels = merged.component_labels
            for data in streams(seed):
                expected = tuple(
                    len({labels[s] for s in active if s in labels})
                    for active in run(merged, data).per_cycle_active)
                assert (active_rule_frequency(components, data)
                        .per_cycle_rule_count == expected)

        @pytest.mark.parametrize("data, percent", [
            (b"bb", 100.0), (b"aa", 0.0), (b"ab", 50.0), (b"", 0.0)])
        def test_start_only_fraction(self, data, percent):
            rule = Automaton(state_count=2,
                             edges=((0, SymbolClass.of(b"a"), 1),),
                             starts={0: ALL}, accepts=frozenset([1]))
            stats = active_rule_frequency([rule], data)
            assert stats.start_only_fraction == percent

        def test_empty_input(self):
            stats = active_rule_frequency([chain(ALL)], b"")
            assert stats.per_cycle_rule_count == ()
            assert (stats.min_active, stats.max_active) == (0, 0)
            assert stats.start_only_fraction == 0.0

        def test_duplicate_pattern_ids_rejected(self):
            a = Automaton(state_count=1, starts={0: ALL},
                          component_labels={0: 5})
            with pytest.raises(ValueError, match="distinct pattern ids"):
                active_rule_frequency([a, a], b"a")

        def test_rule_program_is_reused_only_for_equal_rules(self,
                                                             monkeypatch):
            a = connected_components(
                merge_patterns(regex_rules(5, ALL), [7, 3, 5]))
            b = [gen_levenshtein(p, d, ALL)
                 for p, d in ((b"abc", 1), (b"ca", 1), (b"bcab", 2))]
            merges = []

            def counting_merge(components):
                merges.append(len(components))
                return merge_patterns(components)

            monkeypatch.setattr(simulate, "_last_rules", None)
            monkeypatch.setattr(simulate, "merge_patterns", counting_merge)
            data = streams(5, count=1, length=40)[0]
            # A, B, A again, then an equal copy of A: only the copy reuses
            # the program built before it.
            for rules, built in ((a, 1), (b, 2), (a, 3),
                                 ([replace(c) for c in a], 3)):
                stats = active_rule_frequency(rules, data)
                assert ((stats.per_cycle_rule_count,
                         stats.start_only_fraction)
                        == reference_rule_stats(rules, data))
                assert len(merges) == built

    return TestActiveRules


TestActiveRules = active_rule_tests("python")
TestActiveRulesCompiled = active_rule_tests("c")


def flat_program(step, init, always, report=None):
    """The kernel program of a per-state ``{class: successors}`` table,
    with one more class than the largest key; no state accepts unless
    ``report`` says so."""
    ncls = max((c for row in step for c in row), default=-1) + 1
    off, succ = [0], []
    for row in step:
        for c in range(ncls):
            succ.extend(row.get(c, ()))
            off.append(len(succ))
    return (len(step), ncls, array("i", off), array("i", succ),
            array("i", init), array("i", always),
            array("i", [-1] * len(step) if report is None else report))


def rule_index(draw, n: int):
    """A counting-mode ``rules`` pair for an ``n``-state program."""
    rule_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    raw_start = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return array("i", rule_of), bytes(raw_start)


WINDOW = simulate.WINDOW


@pytest.mark.parametrize("length", [0, WINDOW - 1, 8 * WINDOW - 1,
                                    8 * WINDOW, 8 * WINDOW + 1,
                                    24 * WINDOW + 1])
def test_windowed_sets_equal_one_scan(kernel, length):
    # Lengths around the replay window: none, one short of a full window,
    # one short of eight windows, eight full, one over, and twenty-four
    # full plus one.
    a = merge_patterns([gen_levenshtein(p, d, ALL)
                        for p, d in ((b"abc", 1), (b"ca", 1), (b"bcab", 2))])
    data = streams(length, count=1, length=length)[0]
    sim = Simulator(a)
    trace = sim.run(data)
    whole = kernel.active_sets(sim._program, data.translate(sim._table))
    assert whole == reference_active_sets(a, data)
    assert list(trace.per_cycle_active) == whole
    assert list(trace.per_cycle_active) == whole  # every read replays


def test_scan_memory_does_not_grow_with_the_sets(c_kernel, monkeypatch):
    # 64 KiB over two Levenshtein rules, about 19 states active per cycle:
    # keeping every cycle's frozenset would peak at about 109 MB.
    monkeypatch.setattr(transform, "_kernel", c_kernel)
    sim = Simulator(merge_patterns([gen_levenshtein(p, 2, ALL)
                                    for p in (b"abcdabcd", b"dcbadcba")]))
    data = streams(64, count=1, length=64 * 1024)[0]
    tracemalloc.start()
    try:
        trace = sim.run(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.cycles == len(data)
    assert peak < 4_000_000, peak


def test_replay_holds_one_window_of_sets(kernel):
    # Four all-input Levenshtein d = 3 rules, about 66 of 145 states
    # active per cycle: the replay holds one window of frozensets at a
    # time, a peak of about 0.26 MB at 32 cycles a window (1.5 MB at 256).
    sim = Simulator(merge_patterns([
        gen_levenshtein(p, 3, ALL)
        for p in (b"abcdabcd", b"dcbadcba", b"abcabcab", b"bcdabcda")]))
    trace = sim.run(streams(512, count=1, length=512)[0])
    tracemalloc.start()
    try:
        deque(trace.per_cycle_active, maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000, peak


class TestKernelParity:
    @settings(max_examples=300, deadline=None)
    @given(automata(), inputs.map(lambda b: b"\x00" + b + b"\xff"), st.data())
    def test_compiled_kernel_matches_python(self, c_kernel, a, data, draw):
        sim = Simulator(a)
        n = a.state_count
        rules = rule_index(draw.draw, n)
        # Simulator's report labels, and any label numbering.
        report = array("i", draw.draw(st.lists(st.integers(-1, n - 1),
                                               min_size=n, max_size=n)))
        # Both the class indices Simulator passes and raw bytes, which
        # reach past the class count.
        for program in (sim._program, sim._program[:6] + (report,)):
            for classes in (data.translate(sim._table), data):
                for mode in (None, rules):
                    assert (c_kernel.step_stream(program, classes, mode)
                            == _simkernel_py.step_stream(program, classes,
                                                         mode))
                assert (c_kernel.active_sets(program, classes)
                        == _simkernel_py.active_sets(program, classes))

    def test_every_byte_as_a_class(self, c_kernel):
        # Classes 0 and 255 with successors; data holds both.  Both
        # states accept, state 1 with the lower label index.
        program = flat_program([{0: (1,), 255: (0, 1)}, {255: (1,)}], [0], [],
                               [1, 0])
        assert program[1] == 256
        data = bytes([255, 255, 0, 7])
        summary = (([2, 2, 1, 0], [2, 3], [(0, 1), (0, 0), (1, 1), (1, 0),
                                           (2, 1)]), 6)
        assert c_kernel.step_stream(program, data) == summary
        assert _simkernel_py.step_stream(program, data) == summary
        rules = (array("i", [0, 1]), b"\x01\x00")
        got = c_kernel.step_stream(program, data, rules)
        assert got == _simkernel_py.step_stream(program, data, rules)
        assert got == ([(2, 1), (2, 1), (1, 1), (0, 0)], 6)
        sets = [{0, 1}, {0, 1}, {1}, set()]
        assert c_kernel.active_sets(program, data) == sets
        assert _simkernel_py.active_sets(program, data) == sets

    @pytest.mark.parametrize("init", [[1], [1, 1, 3, 3, 3, 1, 3]],
                             ids=["one", "longer-than-n"])
    @pytest.mark.parametrize("always", [[], [4, 2, 4], [3, 1, 0, 4, 2] * 2],
                             ids=["none", "outside-init", "every-state"])
    def test_dense_step_fills_the_active_buffer(self, kernel, init, always):
        # Class 0 steps every state to every state, each row naming some
        # successors twice, so a cycle holds all n states and the C step's
        # unconditional write lands at index n, one past them.  init
        # either holds one state or repeats states past n items; class 1
        # steps each state to itself and class 2 nowhere; bytes 3 and 255
        # are past ncls.
        n = 5
        step = [{0: [(s + k) % n for k in range(n)] + [s, (s + 1) % n],
                 1: (s,), 2: ()} for s in range(n)]
        program = flat_program(step, init, always, [0, -1, 1, 0, -1])
        rules = (array("i", [0, 0, 0, 1, 1]), b"\x01\x00\x00\x01\x00")
        data = bytes([0, 0, 1, 3, 0, 2, 255, 1, 0, 0])
        active, sets = set(init), []
        for c in data:
            active = set(always).union(*(step[s].get(c, ()) for s in active))
            sets.append(active)
        assert sets[0] == set(range(n))
        assert kernel.active_sets(program, data) == sets
        assert _simkernel_py.active_sets(program, data) == sets
        for mode in (None, rules):
            assert (kernel.step_stream(program, data, mode)
                    == _simkernel_py.step_stream(program, data, mode))

    def test_counting_mode_counts_rules(self, kernel):
        # States 0 and 1 belong to rule 0, state 2 to rule 1; states 0 and
        # 2 are raw starts.
        program = flat_program([{0: (0, 1)}, {}, {0: (2,)}], [0, 2], [0])
        rules = (array("i", [0, 0, 1]), b"\x01\x00\x01")
        got = kernel.step_stream(program, b"\x00\x01", rules)
        assert got == ([(2, 1), (1, 0)], 5)

    def test_simulator_program_layout(self):
        # 0 -a-> 1 -b-> 2 with an ALL_INPUT start: classes a, b and the
        # bytes that no edge reads.
        n, ncls, off, succ, init, always, report = Simulator(
            chain(ALL))._program
        assert (n, ncls) == (3, 3)
        assert list(off) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 2]
        assert list(succ) == [1, 2]
        assert (list(init), list(always)) == ([0], [0])
        assert list(report) == [-1, -1, 0]
        assert all(x.typecode == "i"
                   for x in (off, succ, init, always, report))

    def test_report_labels_are_sorted_with_unlabeled_last(self):
        a = Automaton(state_count=4, starts=dict.fromkeys(range(4), ALL),
                      accepts=frozenset(range(4)),
                      component_labels={0: 9, 1: 4, 3: 9})
        sim = Simulator(a)
        assert list(sim._program[6]) == [1, 0, 2, 1]
        assert sim.run(b"x").reports == ((0, 1, 4), (0, 0, 9), (0, 2, None))

    def test_available_and_default_kernels(self):
        compiled = transform._simkernel is not None
        assert available_kernels() == (("c", "python") if compiled
                                       else ("python",))
        assert default_kernel() == ("c" if compiled else "python")
        assert transform._kernel is (transform._simkernel if compiled
                                     else _simkernel_py)


IMPORT_WITH_FAKE_KERNEL = """
import sys, types, warnings
fake = types.ModuleType("falab._simkernel")
fake.__file__ = "/stale/_simkernel.so"
fake.step_stream = None
if {format!r} is not None:
    fake.FORMAT = {format!r}
sys.modules["falab._simkernel"] = fake
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from falab import simulate, transform
print(simulate.available_kernels(), transform._kernel.__name__)
for w in caught:
    print(w.category.__name__, w.message)
"""


def import_with_fake_kernel(format) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_WITH_FAKE_KERNEL.format(format=format)],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        check=True)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("format", [
    pytest.param(None, id="missing"), pytest.param(1, id="first"),
    pytest.param(_simkernel_py.FORMAT - 1, id="older"),
    pytest.param(_simkernel_py.FORMAT + 1, id="newer")])
def test_compiled_kernel_of_another_format_is_refused(format):
    # A module built from an older source (no FORMAT, or another one) is
    # ignored with a warning that names it and the rebuild command.
    assert import_with_fake_kernel(format) == [
        "('python',) falab._simkernel_py",
        "RuntimeWarning ignoring /stale/_simkernel.so: it was built for "
        "another program format; rebuild it with python setup.py build_ext "
        "--inplace --force"]


def test_kernel_source_compiles_without_warnings():
    flags = ["-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
    proc = subprocess.run(
        [*c_compiler(), *flags, "-I", sysconfig.get_paths()["include"],
         str(SOURCE)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_compiled_kernel_of_the_same_format_is_used():
    assert import_with_fake_kernel(_simkernel_py.FORMAT) == [
        "('c', 'python') falab._simkernel"]


def ints(*items):
    return array("i", items)


# A two-state, one-class program: 0 -> 1 -> {0, 1}; neither accepts.
N, NCLS, OFF, SUCC, REPORT = 2, 1, ints(0, 1, 3), ints(1, 0, 1), ints(-1, -1)


# Malformed (natoms, labels, table) arguments, which flip checks.
MALFORMED_TABLES = [
    pytest.param((1, [0, 0], ints(1, 0)), TypeError,
                 "labels must be a buffer, not 'list'",
                 id="labels-not-a-buffer"),
    pytest.param((1, ints(0, 0), (1, 0)), TypeError,
                 "table must be a buffer, not 'tuple'",
                 id="table-not-a-buffer"),
    pytest.param((1, array("q", [0, 0]), ints(1, 0)), TypeError,
                 "labels must hold 'i' items, not 'q'",
                 id="labels-item-format"),
    pytest.param((1, ints(0, 0), b"\x01\x00"), TypeError,
                 "table must hold 'i' items, not 'B'",
                 id="table-item-format"),
    pytest.param((1, ints(0, 0), ints(1)), ValueError,
                 r"table must have len\(labels\) \* natoms = 2 items, "
                 r"not 1", id="table-short"),
    pytest.param((2, ints(0, 0), ints(1, 0)), ValueError,
                 r"table must have len\(labels\) \* natoms = 4 items, "
                 r"not 2", id="table-for-fewer-atoms"),
    pytest.param((1, ints(0, 0), ints(1, -2)), ValueError,
                 r"table\[1\] is -2, outside -1\.\.1",
                 id="target-below-minus-one"),
    pytest.param((1, ints(0, 0), ints(2, 0)), ValueError,
                 r"table\[0\] is 2, outside -1\.\.1", id="target-n"),
    pytest.param((-1, ints(0, 0), ints()), ValueError,
                 r"natoms is -1; it must be an int in 0\.\.256",
                 id="natoms-negative"),
    pytest.param((257, ints(), ints()), ValueError, "natoms is 257",
                 id="natoms-above-256"),
    pytest.param((2**70, ints(), ints()), ValueError,
                 "natoms is 1180591620717411303424", id="natoms-overflow"),
    pytest.param(("1", ints(), ints()), ValueError, "natoms is '1'",
                 id="natoms-not-an-int"),
]


class TestCompiledKernelErrors:
    """Bad arguments raise before the scan and release every view."""

    @pytest.mark.parametrize("program, error, match", [
        pytest.param((N, NCLS, OFF, SUCC, ints()), TypeError,
                     "program must be a", id="wrong-arity"),
        pytest.param(42, TypeError, "program must be a", id="not-a-tuple"),
        pytest.param((N, NCLS, [0, 1, 3], SUCC, ints(), ints(), REPORT),
                     TypeError, "off must be a buffer, not 'list'",
                     id="off-not-a-buffer"),
        pytest.param((N, 257, OFF, SUCC, ints(), ints(), REPORT), ValueError,
                     "ncls 257; they must be ints in 0..2147483646 and 0..256",
                     id="ncls-above-256"),
        pytest.param(("a", NCLS, OFF, SUCC, ints(), ints(), REPORT),
                     ValueError, "program n is 'a'", id="n-not-an-int"),
        pytest.param((N, NCLS, OFF, array("q", SUCC), ints(), ints(), REPORT),
                     TypeError, "succ must hold 'i' items, not 'q'",
                     id="succ-item-format"),
        pytest.param((N, NCLS, ints(0, 1), SUCC, ints(), ints(), REPORT),
                     ValueError,
                     r"off must have n \* ncls \+ 1 = 3 items, not 2",
                     id="off-length"),
        pytest.param((N, NCLS, OFF, SUCC, ints(0, -1), ints(), REPORT),
                     ValueError, r"init\[1\] is -1, outside 0\.\.1",
                     id="init-negative"),
        pytest.param((N, NCLS, OFF, SUCC, ints(), ints(2**31 - 1), REPORT),
                     ValueError, r"always\[0\] is 2147483647, outside 0\.\.1",
                     id="always-beyond-n"),
        pytest.param((2**70, NCLS, OFF, SUCC, ints(), ints(), REPORT),
                     ValueError, "program n is 1180591620717411303424",
                     id="n-overflow"),
        pytest.param((N, NCLS, ints(0, 2, 1), SUCC, ints(), ints(), REPORT),
                     ValueError, r"off\[2\] is 1, below 2 before it",
                     id="off-decreasing"),
        pytest.param((N, NCLS, ints(-1, 1, 3), SUCC, ints(), ints(), REPORT),
                     ValueError, r"off\[0\] is -1, below 0 before it",
                     id="off-negative"),
        pytest.param((N, NCLS, ints(0, 1, 2), SUCC, ints(), ints(), REPORT),
                     ValueError, r"off\[2\] is 2, not len\(succ\) = 3",
                     id="off-end"),
        pytest.param((N, NCLS, OFF, SUCC, ints(), ints()), TypeError,
                     r"program must be a \(n, ncls, off, succ, init, always, "
                     r"report\) tuple", id="no-report"),
        pytest.param((N, NCLS, OFF, SUCC, ints(), ints(), [-1, -1]),
                     TypeError, "report must be a buffer, not 'list'",
                     id="report-not-a-buffer"),
        pytest.param((N, NCLS, OFF, SUCC, ints(), ints(), array("q", REPORT)),
                     TypeError, "report must hold 'i' items, not 'q'",
                     id="report-item-format"),
        pytest.param((N, NCLS, OFF, SUCC, ints(), ints(), ints(-1)),
                     ValueError, r"report must have one item per state "
                     r"\(2\), not 1", id="report-short"),
        pytest.param((N, NCLS, OFF, SUCC, ints(), ints(), ints(-1, -1, 0)),
                     ValueError, r"report must have one item per state "
                     r"\(2\), not 3", id="report-long"),
        pytest.param((N, NCLS, OFF, SUCC, ints(), ints(), ints(-2, 0)),
                     ValueError, r"report\[0\] is -2, outside -1\.\.1",
                     id="report-below-minus-one"),
        pytest.param((N, NCLS, OFF, SUCC, ints(), ints(), ints(0, 2)),
                     ValueError, r"report\[1\] is 2, outside -1\.\.1",
                     id="report-beyond-n"),
    ])
    def test_malformed_program(self, c_kernel, program, error, match):
        calls = (lambda: c_kernel.step_stream(program, b"\x00"),
                 lambda: c_kernel.active_sets(program, b"\x00"),
                 lambda: c_kernel.subsets(program, 1),
                 lambda: c_kernel.refine(program))
        for call in calls:
            with pytest.raises(error, match=match):
                call()

    @pytest.mark.parametrize("successor", [2, 3, 10**6])
    def test_successor_beyond_state_count(self, c_kernel, successor):
        program = (N, NCLS, OFF, ints(1, 0, successor), ints(0), ints(),
                   REPORT)
        match = rf"succ\[2\] is {successor}, outside 0\.\.1"
        with pytest.raises(ValueError, match=match):
            c_kernel.step_stream(program, b"\x00\x00")
        with pytest.raises(ValueError, match=match):
            c_kernel.subsets(program, 1)
        with pytest.raises(ValueError, match=match):
            c_kernel.refine(program)

    @pytest.mark.parametrize("data", ["ab", 7, None, [0, 1]])
    def test_data_not_bytes_like(self, c_kernel, data):
        with pytest.raises(TypeError, match="data must be a bytes-like"):
            c_kernel.step_stream((N, NCLS, OFF, SUCC, ints(), ints(), REPORT),
                                 data)

    @pytest.mark.parametrize("rules, match", [
        ((ints(0, 0),), "pair"),
        ((ints(0, 0), b"\x00"), "one item per state"),
        ((ints(0, 2), b"\x00\x00"), r"rule_of\[1\] is 2"),
        (([0, None], b"\x00\x00"), "rule_of must be a buffer"),
        ((ints(0, 0), ints(0, 0)), "raw_start must hold 'B'"),
    ])
    def test_malformed_rules(self, c_kernel, rules, match):
        with pytest.raises((TypeError, ValueError), match=match):
            c_kernel.step_stream((N, NCLS, OFF, SUCC, ints(), ints(), REPORT),
                                 b"\x00", rules)

    @pytest.mark.parametrize("args, error, match", MALFORMED_TABLES)
    def test_malformed_flip(self, c_kernel, args, error, match):
        with pytest.raises(error, match=match):
            c_kernel.flip(*args)

    def test_error_paths_free_their_buffers(self, c_kernel):
        # Each call fails after its 1 MB off and succ arrays (1000 states x
        # 256 classes) are viewed, or, for the last subset walk, stops past
        # the cap after half the walk; the flips fail after viewing a 1 MB
        # table, or flip it, and the refinement refines that flip.  A view
        # left unreleased would keep them alive, so memory would grow, and
        # would forbid resizing them; so would scratch memory that the
        # walk, flip or refinement did not free.
        n, ncls = 1000, 256
        # every state moves to the next on every class: n subsets
        to_next = array("i", [(k // ncls + 1) % n for k in range(n * ncls)])

        def failing_calls():
            # (program, rules, and what the subset walk with cap n // 2
            # gives: the error it raises, its state count, or None past
            # the cap)
            off = array("i", range(n * ncls + 1))
            succ = array("i", [0]) * (n * ncls)
            rules = (array("i", [0]) * n, bytes(n))
            report = array("i", [-1]) * n
            yield ((n, ncls, off, succ[:-1] + ints(n), ints(0), ints(),
                    report), rules, ValueError)
            yield ((n, ncls, off, succ, ints(0), ints(n), report), rules,
                   ValueError)
            yield ((n, ncls, off, succ, ints(0), ints(),
                    report[:-1] + ints(n)), rules, ValueError)
            yield ((n, ncls, off, succ, ints(0), ints(), report),
                   (array("i", [n]) * n, bytes(n)), 1)
            step = array("i", to_next)
            labeled = array("i", range(n))  # the walk counts each label
            yield ((n, ncls, off, step, ints(0), ints(), labeled),
                   (rules[0], rules[0]), None)
            off.append(0)  # raises BufferError while a view is held
            succ.append(0)
            step.append(0)

        def fail_all():
            for program, rules, walked in failing_calls():
                with pytest.raises((TypeError, ValueError)):
                    c_kernel.step_stream(program, b"\x00", rules)
                if isinstance(walked, type):
                    with pytest.raises(walked):
                        c_kernel.subsets(program, n // 2)
                    with pytest.raises(walked):
                        c_kernel.refine(program)
                else:
                    result = c_kernel.subsets(program, n // 2)
                    assert (None if result is None
                            else len(result[0])) == walked
            # one accepting state on the cycle: n blocks and the dead one
            labels = array("i", [0]) * (n - 1) + ints(1)
            table = to_next[:-1] + ints(n)
            with pytest.raises(ValueError, match=r"table\[255999\] is 1000"):
                c_kernel.flip(ncls, labels, table)
            with pytest.raises(ValueError, match="natoms = 255000 items"):
                c_kernel.flip(ncls - 1, labels, table)
            # each state is reached from the one before it on every class
            flipped = c_kernel.flip(ncls, labels, to_next)
            assert flipped[3][:2] == ints(n - 1, n - 1)
            assert max(c_kernel.refine(flipped)) == n
            labels.append(0)  # raises BufferError while a view is held
            table.append(0)

        tracemalloc.start()
        try:
            for _ in range(3):  # warm up lazily allocated interpreter state
                fail_all()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                fail_all()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 100_000, grown
