import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from falab import _simkernel_py, simulate
from falab.core import Automaton, StartKind, SymbolClass
from falab.generators import SplitMix64, gen_levenshtein
from falab.regex import compile_regex
from falab.simulate import (Simulator, active_rule_frequency,
                            available_kernels, default_kernel, run,
                            start_only_fraction, throughput)
from falab.transform import accepts, connected_components, merge_patterns

from corpus import random_regex

SOD = StartKind.START_OF_DATA
ALL = StartKind.ALL_INPUT
KINDS = (SOD, ALL)
ALPHABET = b"abc"


@st.composite
def automata(draw):
    """Small NFAs with epsilon edges and mixed starts.

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
    return Automaton(state_count=n, edges=tuple(edges),
                     epsilon_edges=tuple(eps), starts=starts, accepts=finals)


# "d", 0x00 and 0xFF lie outside every subset of ALPHABET, so on most
# automata they empty all but the every-cycle set.
INPUT_BYTES = b"abcd\x00\xff"
inputs = st.binary(max_size=8).map(
    lambda b: bytes(INPUT_BYTES[x % len(INPUT_BYTES)] for x in b))


def reference_active_sets(a: Automaton, data: bytes) -> list[frozenset[int]]:
    """Per-cycle active sets by direct search over the edge lists."""

    def close(states):
        seen = set(states)
        stack = list(seen)
        while stack:
            s = stack.pop()
            for src, dst in a.epsilon_edges:
                if src == s and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    always = close(s for s, k in a.starts.items() if k is ALL)
    active = close(a.starts) | always
    out = []
    for byte in data:
        active = close(d for s, c, d in a.edges
                       if s in active and byte in c) | always
        out.append(frozenset(active))
    return out


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

        @settings(max_examples=60, deadline=None)
        @given(automata())
        def test_empty_input_is_a_zero_cycle_trace(self, a):
            trace = run(a, b"")
            assert trace.cycles == 0
            assert trace.per_cycle_active == ()
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
            trace, counted = Simulator(chain(kind)).run_counting(data)
            assert [set(s) for s in trace.per_cycle_active] == cycles
            assert counted == work

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
    sets = [run(c, data).per_cycle_active for c in components]
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
                assert start_only_fraction(rules, data) == start_only

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
            assert start_only_fraction([rule], b"dddd") == 0.0
            stats = active_rule_frequency([rule], b"dddd")
            assert stats.per_cycle_rule_count == (1, 1, 1, 1)

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
            assert start_only_fraction([rule], data) == percent
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

        def test_start_only_fraction_needs_one_start_per_rule(self):
            two_starts = Automaton(state_count=2, starts={0: ALL, 1: SOD})
            with pytest.raises(ValueError, match=r"components \[1\]"):
                start_only_fraction([chain(ALL), two_starts], b"a")

    return TestActiveRules


TestActiveRules = active_rule_tests("python")
TestActiveRulesCompiled = active_rule_tests("c")


def rule_index(draw, n: int):
    """A counting-mode ``rules`` pair for an ``n``-state program."""
    rule_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    raw_start = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return rule_of, raw_start


class TestKernelParity:
    @settings(max_examples=300, deadline=None)
    @given(automata(), inputs.map(lambda b: b"\x00" + b + b"\xff"), st.data())
    def test_compiled_kernel_matches_python(self, c_kernel, a, data, draw):
        sim = Simulator(a)
        rules = rule_index(draw.draw, a.state_count)
        # Both the class indices Simulator passes and raw bytes, which
        # reach past the class count.
        for classes in (data.translate(sim._table), data):
            for mode in (None, rules):
                assert (c_kernel.step_stream(sim._program, classes, mode)
                        == _simkernel_py.step_stream(sim._program, classes,
                                                     mode))

    def test_every_byte_as_a_class(self, c_kernel):
        # Class keys 0 and 255 with successors; data holds both.
        program = ([{0: (1,), 255: (0, 1)}, {255: (1,)}], frozenset([0]),
                   frozenset())
        data = bytes([255, 255, 0, 7])
        for mode in (None, ([0, 1], [True, False])):
            got = c_kernel.step_stream(program, data, mode)
            assert got == _simkernel_py.step_stream(program, data, mode)
        assert got == ([(2, 1), (2, 1), (1, 1), (0, 0)], 6)

    def test_counting_mode_counts_rules(self, kernel):
        # States 0 and 1 belong to rule 0, state 2 to rule 1; states 0 and
        # 2 are raw starts.
        program = ([{0: (0, 1)}, {}, {0: (2,)}], frozenset([0, 2]),
                   frozenset([0]))
        got = kernel.step_stream(program, b"\x00\x01", ([0, 0, 1], [1, 0, 1]))
        assert got == ([(2, 1), (1, 0)], 5)

    def test_available_and_default_kernels(self):
        compiled = simulate._simkernel is not None
        assert available_kernels() == (("c", "python") if compiled
                                       else ("python",))
        assert default_kernel() == ("c" if compiled else "python")
        assert simulate._kernel is (simulate._simkernel if compiled
                                    else _simkernel_py)


class TestCompiledKernelErrors:
    """Bad arguments raise before the scan and leak no buffer."""

    @pytest.mark.parametrize("program, error, match", [
        (([{}], ()), ValueError, "triple"),
        (42, TypeError, "triple"),
        (([{}, [(0, (0,))]], (), ()), TypeError, r"step\[1\] must be a dict"),
        (([{256: (0,)}], (), ()), ValueError,
         r"class key of step\[0\] is 256, outside 0\.\.255"),
        (([{"a": (0,)}], (), ()), TypeError, r"class key of step\[0\]"),
        (([{0: 0}], (), ()), TypeError, r"step\[0\]\[0\] must be a tuple"),
        (([{0: ("x",)}], (), ()), TypeError, r"successor in step\[0\]\[0\]"),
        (([{}], (0, -1), ()), ValueError, "an item of init is -1"),
        (([{}], (), (2**70,)), ValueError, "an item of always"),
    ])
    def test_malformed_program(self, c_kernel, program, error, match):
        with pytest.raises(error, match=match):
            c_kernel.step_stream(program, b"\x00")

    @pytest.mark.parametrize("successor", [2, 3, 10**6])
    def test_successor_beyond_state_count(self, c_kernel, successor):
        program = ([{0: (1,)}, {1: (0, successor)}], (0,), ())
        match = rf"successor in step\[1\]\[1\] is {successor}, outside 0\.\.1"
        with pytest.raises(ValueError, match=match):
            c_kernel.step_stream(program, b"\x00\x01")

    @pytest.mark.parametrize("data", ["ab", 7, None, [0, 1]])
    def test_data_not_bytes_like(self, c_kernel, data):
        with pytest.raises(TypeError, match="data must be a bytes-like"):
            c_kernel.step_stream(([{}], (), ()), data)

    @pytest.mark.parametrize("rules, match", [
        (([0],), "pair"),
        (([0, 0], [False]), "one item per state"),
        (([0, 2], [False, False]), r"an item of rule_of is 2, outside 0\.\.1"),
        (([0, None], [False, False]), "an item of rule_of must be an int"),
    ])
    def test_malformed_rules(self, c_kernel, rules, match):
        with pytest.raises((TypeError, ValueError), match=match):
            c_kernel.step_stream(([{}, {}], (), ()), b"\x00", rules)

    def test_error_paths_free_their_buffers(self, c_kernel):
        # Each call fails after the step table (1000 states x 256 classes,
        # about 1 MB) is allocated.
        step = [{c: (s,) for c in range(256)} for s in range(1000)]
        bad = [(step + [{0: (5000,)}], (), ()), (step, (), (1000,)),
               (step, (), ())]
        tracemalloc.start()
        try:
            for _ in range(3):  # warm up lazily allocated interpreter state
                for program in bad:
                    with pytest.raises(ValueError):
                        c_kernel.step_stream(program, b"\x00", ([0], [0]))
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                for program in bad:
                    with pytest.raises(ValueError):
                        c_kernel.step_stream(program, b"\x00", ([0], [0]))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 100_000, grown


class TestThroughput:
    def test_gbps(self):
        assert throughput(8e9, 2.0) == 4.0

    @pytest.mark.parametrize("bits, seconds", [(8, 0), (-1, 1)])
    def test_rejects_bad_arguments(self, bits, seconds):
        with pytest.raises(ValueError):
            throughput(bits, seconds)
