import json
import time
import tracemalloc
from array import array
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from falab import _simkernel_py, transform
from falab.cli import main
from falab.core import (Automaton, StartKind, SymbolClass, canonicalize,
                        is_deterministic, isomorphic, merge_parallel_edges,
                        relabel, validate)
from falab.documents import save_automaton
from falab.generators import SplitMix64, gen_levenshtein
from falab.regex import compile_regex
from falab.transform import (ORACLE_STATE_LIMIT, CapExceededError, accepts,
                             brute_force_minimal_states, close_over,
                             connected_components, determinize,
                             epsilon_closures, equivalent, merge_patterns,
                             minimize_brzozowski, minimize_hopcroft,
                             optimize_nfa, partition_masks, remove_epsilon,
                             trim, _flip, _program, _subsets, _walk,
                             _witness)

from corpus import (BYTES, START_MODES, alternating_chain, nfas,
                    random_regex)

SOD = StartKind.START_OF_DATA
ALL = StartKind.ALL_INPUT


def regex_rules(seed: int, kind: StartKind, count: int = 3) -> list[Automaton]:
    rng = SplitMix64(seed)
    return [compile_regex(random_regex(rng, 2, 3), kind) for _ in range(count)]


class TestConnectedComponents:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([SOD, ALL]),
           st.sampled_from([[10, 20, 30], [3, 4, 5], [2, 1, 0]]))
    def test_one_component_per_merged_pattern(self, seed, kind, ids):
        rules = regex_rules(seed, kind)
        components = connected_components(merge_patterns(rules, ids))
        assert len(components) == len(rules)
        for component, rule, pid in zip(components, rules, ids):
            assert set(component.component_labels.values()) == {pid}
            assert component.state_count == rule.state_count
            assert set(component.starts.values()) == {kind}
            assert equivalent(component, rule)

    def test_unlabeled_automaton_splits_by_connectivity(self):
        a = Automaton(state_count=4,
                      edges=((2, SymbolClass.of(b"a"), 0),),
                      epsilon_edges=((1, 3),),
                      starts={2: SOD, 1: ALL}, accepts=frozenset([0, 3]))
        parts = connected_components(a)
        assert [p.component_labels for p in parts] == [{0: 0, 1: 0},
                                                      {0: 1, 1: 1}]
        assert [p.starts for p in parts] == [{1: SOD}, {0: ALL}]

    def test_unlabeled_state_that_is_not_a_shared_start_is_named(self):
        a = Automaton(state_count=3,
                      edges=((0, SymbolClass.of(b"a"), 1),
                             (2, SymbolClass.of(b"b"), 0)),
                      starts={0: SOD, 2: SOD}, component_labels={0: 1, 1: 1})
        with pytest.raises(ValueError, match=r"states \[2\]"):
            connected_components(a)

    def test_edge_between_labels_is_named(self):
        a = Automaton(state_count=2,
                      edges=((0, SymbolClass.of(b"a"), 1),),
                      starts={0: SOD}, component_labels={0: 1, 1: 2})
        with pytest.raises(ValueError, match=r"edges \[\(0, 1\)\]"):
            connected_components(a)

    @pytest.mark.parametrize("kind", [SOD, ALL])
    def test_cli_active_rules_counts_every_pattern(self, tmp_path, capsys,
                                                   kind):
        rules = [compile_regex(r, kind) for r in ("ab", "b+", "ca")]
        path = tmp_path / "merged.json"
        save_automaton(merge_patterns(rules, [10, 20, 30]), str(path))
        (tmp_path / "input.bin").write_bytes(b"abca")
        assert main(["active-rules", str(path),
                     "--input", str(tmp_path / "input.bin")]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["rules"] == 3
        assert len(result["per_cycle_rule_count"]) == 4


class TestMergeParallelEdges:
    def test_unions_classes_and_sorts(self):
        a, b, c = (SymbolClass.of(x) for x in (b"a", b"b", b"c"))
        edges = merge_parallel_edges([(1, c, 0), (0, b, 1), (0, a, 1),
                                      (0, b, 0)])
        # sorted by (src, class mask, dst): the mask of "b" is below "ab"'s
        assert edges == ((0, b, 0), (0, SymbolClass.of(b"ab"), 1), (1, c, 0))


def lower_all_input(a: Automaton) -> Automaton:
    """ALL_INPUT starts as a fresh START_OF_DATA state, the last, with a
    full-alphabet self-loop and epsilon edges to each of them: the same
    language, with no state active on every cycle."""
    all_input = sorted(s for s, k in a.starts.items() if k is ALL)
    if not all_input:
        return a
    fresh = a.state_count
    starts = {s: k for s, k in a.starts.items() if k is not ALL}
    starts[fresh] = SOD
    return Automaton(
        state_count=fresh + 1,
        edges=a.edges + ((fresh, SymbolClass.full(), fresh),),
        epsilon_edges=a.epsilon_edges + tuple((fresh, s) for s in all_input),
        starts=starts,
        accepts=a.accepts,
        component_labels=a.component_labels,
    )


def frozenset_determinize(a: Automaton, cap: int) -> Automaton:
    """Reference subset construction: frozenset subsets, atoms per subset,
    with ALL_INPUT starts lowered to an explicit self-looping start."""
    a = lower_all_input(a)
    closures = epsilon_closures(a)
    out_masks = [[] for _ in range(a.state_count)]
    for src, cls, dst in a.edges:
        out_masks[src].append((cls.mask, dst))
    init = close_over(closures, (s for s, k in a.starts.items() if k is SOD))
    ids = {init: 0}
    edges = []
    queue = deque([init])
    while queue:
        subset = queue.popleft()
        pairs = [pair for s in subset for pair in out_masks[s]]
        for atom in partition_masks([m for m, _ in pairs]):
            target = close_over(closures, (d for m, d in pairs if m & atom))
            if target not in ids:
                if len(ids) >= cap:
                    raise CapExceededError(cap)
                ids[target] = len(ids)
                queue.append(target)
            edges.append((ids[subset], SymbolClass(atom), ids[target]))
    return Automaton(
        state_count=len(ids),
        edges=merge_parallel_edges(edges),
        starts={0: SOD},
        accepts=frozenset(i for i, subset in enumerate(ids)
                          if subset & a.accepts),
    )


class TestDeterminize:
    @settings(max_examples=300, deadline=None)
    @given(nfas())
    def test_matches_frozenset_construction(self, nfa):
        expected = frozenset_determinize(nfa, 1 << 20)
        dfa = determinize(nfa)
        assert dfa.state_count == expected.state_count
        assert isomorphic(dfa, expected)
        assert validate(dfa) == []
        assert equivalent(nfa, dfa)
        assert dfa.edges == merge_parallel_edges(dfa.edges)
        assert canonicalize(dfa).structurally_equal(dfa)

    @settings(max_examples=100, deadline=None)
    @given(nfas())
    def test_cap_boundary(self, nfa):
        n = frozenset_determinize(nfa, 1 << 20).state_count
        assert determinize(nfa, n).state_count == n
        if n > 1:
            with pytest.raises(CapExceededError):
                determinize(nfa, n - 1)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_is_rejected(self, cap):
        one_state = Automaton(state_count=1, starts={0: SOD})
        with pytest.raises(ValueError,
                           match=rf"cap must be at least 1 \(got {cap}\)"):
            determinize(one_state, cap)

    def test_all_input_start_moves_on_bytes_no_edge_reads(self, kernel):
        # "ab" reads only a and b; on c its DFA's start moves back to
        # itself, where the all-input start is still active.
        dfa = determinize(compile_regex("ab", ALL))
        assert any(src == dst == 0 and ord("c") in cls
                   for src, cls, dst in dfa.edges)
        assert accepts(dfa, b"cab")

    @pytest.mark.parametrize("cap", ["0", "-2", "many"])
    def test_cli_cap_below_one_is_a_usage_error(self, tmp_path, capsys, cap):
        path = tmp_path / "a.json"
        save_automaton(compile_regex("ab", SOD), str(path))
        with pytest.raises(SystemExit) as exc:
            main(["determinize", str(path), "--cap", cap])
        assert exc.value.code == 2
        assert "--cap" in capsys.readouterr().err

    def test_cli_cap_one_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        save_automaton(Automaton(state_count=1, starts={0: SOD}), str(path))
        assert main(["determinize", str(path), "--cap", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["states"] == 1


CAP = 1 << 20


def walked_by(module, fn, *args):
    """``fn(*args)``, with every subset walk in the kernel ``module``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "_kernel", module)
        return fn(*args)


def ints(*items):
    return array("i", items)


def multiword_merge(kind: StartKind) -> Automaton:
    """Four Levenshtein d=2 patterns merged: over 64 states."""
    return merge_patterns([gen_levenshtein(p, 2, kind) for p in (
        b"abcdabcd", b"dcbadcba", b"abcabcab", b"hgfedcba")])


class TestSubsetWalk:
    """The compiled walk against its specification, _simkernel_py.subsets."""

    @pytest.mark.parametrize("mode", START_MODES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_compiled_walk_matches_python(self, c_kernel, mode, data):
        nfa = data.draw(nfas(mode))
        assert (walked_by(c_kernel, _subsets, nfa, CAP)
                == walked_by(_simkernel_py, _subsets, nfa, CAP))

    @pytest.mark.parametrize("mode", START_MODES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_always_walks_as_the_lowered_start(self, c_kernel, mode, data):
        # ALL_INPUT starts as the program's `always` set, and as an
        # explicit self-looping start: the same classes, the same subsets
        # numbered alike, and the same cap boundary.
        nfa = data.draw(nfas(mode))
        atoms, _, lowered = _program(lower_all_input(nfa))
        for module in (_simkernel_py, c_kernel):
            walked = walked_by(module, _subsets, nfa, CAP)
            assert walked == (atoms, *module.subsets(lowered, CAP))
            n = len(walked[1])
            assert walked_by(module, _subsets, nfa, n) == walked
            if n > 1:
                assert module.subsets(lowered, n - 1) is None
                with pytest.raises(CapExceededError):
                    walked_by(module, _subsets, nfa, n - 1)

    @pytest.mark.parametrize("kind", [SOD, ALL],
                             ids=["start-of-data", "all-input"])
    def test_multiword_subsets_match_python(self, c_kernel, kind):
        # Over 64 states, so subsets span several 64-bit words, in the
        # forward walk and in Brzozowski's walk of the reversed table.
        merged = multiword_merge(kind)
        assert merged.state_count > 64
        assert (walked_by(c_kernel, _subsets, merged, CAP)
                == walked_by(_simkernel_py, _subsets, merged, CAP))
        minimal = [walked_by(module, minimize_brzozowski, merged)
                   for module in (c_kernel, _simkernel_py)]
        assert minimal[0].structurally_equal(minimal[1])

    def test_new_subsets_are_numbered_by_their_highest_class(self, kernel):
        # State 0 moves to 2 on classes 0 and 2, and to 1 on class 1.  The
        # highest class into {1} is 1 and into {2} is 2, so {1} comes
        # first; only state 2 has a report label.
        program = (3, 3, ints(0, 1, 2, 3, 3, 3, 3, 3, 3, 3), ints(2, 1, 2),
                   ints(0), ints(), ints(-1, -1, 0))
        labels, table = kernel.subsets(program, 3)
        assert list(labels) == [0, 0, 1]
        assert list(table) == [2, 1, 2] + [-1] * 6

    @pytest.mark.parametrize("report, counts", [
        ((-1, -1, -1), [0, 0]), ((-1, 0, 0), [0, 1]), ((-1, 0, 1), [0, 2]),
        ((1, 2, 0), [1, 2])])
    def test_labels_count_distinct_report_labels(self, kernel, report,
                                                 counts):
        # {0} moves to {1, 2} on the one class, which moves nowhere.
        program = (3, 1, ints(0, 2, 2, 2), ints(1, 2), ints(0), ints(),
                   ints(*report))
        labels, table = kernel.subsets(program, 2)
        assert (list(labels), list(table)) == (counts, [1, -1])

    @settings(max_examples=100, deadline=None)
    @given(nfas())
    def test_cap_boundary(self, c_kernel, nfa):
        program = _program(nfa)[2]
        n = len(_simkernel_py.subsets(program, CAP)[0])
        for module in (_simkernel_py, c_kernel):
            assert len(module.subsets(program, n)[0]) == n
            if n > 1:
                assert module.subsets(program, n - 1) is None
        if n > 1:
            with pytest.raises(CapExceededError) as info:
                _subsets(nfa, n - 1)
            assert info.value.cap == n - 1

    @pytest.mark.parametrize("cap", [0, -3, -2**70])
    def test_cap_below_one_is_rejected(self, kernel, cap):
        one_state = Automaton(state_count=1, starts={0: SOD})
        with pytest.raises(ValueError,
                           match=rf"cap must be at least 1 \(got {cap}\)"):
            _subsets(one_state, cap)

    def test_cap_beyond_a_machine_word_is_no_bound(self, kernel):
        assert _subsets(compile_regex("ab", SOD), 2**70) == _subsets(
            compile_regex("ab", SOD), CAP)

    def test_walk_memory_does_not_hold_the_subsets(self, c_kernel,
                                                   monkeypatch):
        # The chain's 20,001 subsets, one state each, span up to 313
        # 64-bit words: as Python ints they would take 27 MB.  The walk
        # returns 0.4 MB of labels and table, and frees its scratch.
        monkeypatch.setattr(transform, "_kernel", c_kernel)
        chain = alternating_chain(20_000)
        tracemalloc.start()
        try:
            atoms, labels, table = _subsets(chain, CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(labels), sum(labels), len(atoms)) == (20_001, 1, 2)
        assert peak < 8_000_000, peak


class TestRefine:
    """The compiled refinement against its specification,
    _simkernel_py.refine, each on its own kernel's flip of the table:
    equal arrays, blocks numbered canonically."""

    @staticmethod
    def refined(c_kernel, natoms, labels, table):
        blocks = c_kernel.refine(c_kernel.flip(natoms, labels, table))
        assert isinstance(blocks, array) and blocks.typecode == "i"
        assert blocks == _simkernel_py.refine(
            _simkernel_py.flip(natoms, labels, table))
        return list(blocks)

    @pytest.mark.parametrize("mode", START_MODES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_walked_tables_match_python(self, c_kernel, mode, data):
        atoms, labels, table = _subsets(data.draw(nfas(mode)), CAP)
        blocks = self.refined(c_kernel, len(atoms), labels, table)
        # canonical: each block's smallest member comes before those of the
        # blocks numbered above it
        assert [b for k, b in enumerate(blocks)
                if b not in blocks[:k]] == list(range(max(blocks) + 1))

    @pytest.mark.parametrize("kind", [SOD, ALL],
                             ids=["start-of-data", "all-input"])
    def test_multiword_table_matches_python(self, c_kernel, kind):
        atoms, labels, table = _subsets(multiword_merge(kind), CAP)
        assert len(labels) > 64
        self.refined(c_kernel, len(atoms), labels, table)

    @pytest.mark.parametrize("accepts", [frozenset(), frozenset([0])])
    def test_automaton_without_edges(self, c_kernel, accepts):
        atoms, labels, table = _subsets(
            Automaton(state_count=1, starts={0: SOD}, accepts=accepts), CAP)
        assert (atoms, len(table)) == ([], 0)
        assert self.refined(c_kernel, 0, labels, table) == [0, len(accepts)]

    def test_no_atoms_tell_only_acceptance_apart(self, c_kernel):
        assert self.refined(c_kernel, 0, ints(0, 1, 0), ints()) == [0, 1, 0,
                                                                    0]

    def test_empty_language(self, c_kernel):
        # 0 -> 1 -> 0 on atom 0, 1 -> no move on atom 1; nothing accepts
        blocks = self.refined(c_kernel, 2, ints(0, 0), ints(1, 1, 0, -1))
        assert blocks == [0, 0, 0]

    def test_complete_table_accepting_everywhere(self, c_kernel):
        # every state accepts every word, so only the dead state differs
        blocks = self.refined(c_kernel, 2, ints(1, 2, 1), ints(1, 2, 2, 0,
                                                              0, 1))
        assert blocks == [0, 0, 0, 1]

    @pytest.mark.parametrize("labels, table, blocks", [
        ((1,), (0,), [0, 1]), ((0,), (0,), [0, 0]), ((1,), (-1,), [0, 1])])
    def test_one_state(self, c_kernel, labels, table, blocks):
        assert self.refined(c_kernel, 1, ints(*labels), ints(*table)) == blocks

    def test_blocks_are_numbered_by_their_smallest_member(self, c_kernel):
        # 0 and 2 move to the accepting 1, which stops: {0, 2}, {1}, dead
        blocks = self.refined(c_kernel, 1, ints(0, 1, 0), ints(1, -1, 1))
        assert blocks == [0, 1, 0, 2]

    def test_long_chain_matches_python(self, c_kernel):
        atoms, labels, table = _subsets(alternating_chain(2_000), CAP)
        assert self.refined(c_kernel, len(atoms), labels, table) == list(
            range(2_002))

    def test_one_block_splits_nothing(self, c_kernel):
        # Every state accepts, so the first partition has one block; this
        # program is no flip (state 0 has no predecessor list, as off[0] is
        # 1), and neither kernel splits the block.
        program = (2, 1, ints(1, 1, 2), ints(0, 1), ints(0, 1), ints(),
                   ints(0, -1))
        for module in (_simkernel_py, c_kernel):
            assert module.refine(program) == ints(0, 0)

    @pytest.mark.parametrize("ncls", [0, 2])
    def test_empty_program(self, c_kernel, ncls):
        # No states: no blocks, in both kernels.
        program = (0, ncls, ints(0), ints(), ints(), ints(), ints())
        for module in (_simkernel_py, c_kernel):
            assert module.refine(program) == ints()


class TestFlip:
    """The compiled flip against its specification, _simkernel_py.flip:
    equal programs, and the programs Brzozowski's second walk ran on."""

    @staticmethod
    def flipped(c_kernel, natoms, labels, table):
        program = c_kernel.flip(natoms, labels, table)
        assert all(isinstance(x, array) and x.typecode == "i"
                   for x in program[2:])
        assert program == _simkernel_py.flip(natoms, labels, table)
        return program

    @pytest.mark.parametrize("mode", START_MODES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_walked_tables_match_python(self, c_kernel, mode, data):
        # The forward walk, and the walk of its flip that the pipeline
        # flips second.
        atoms, labels, table = _subsets(data.draw(nfas(mode)), CAP)
        for walked in ((labels, table),
                       _walk(_flip(atoms, labels, table), CAP)):
            self.flipped(c_kernel, len(atoms), *walked)

    @pytest.mark.parametrize("kind", [SOD, ALL],
                             ids=["start-of-data", "all-input"])
    def test_multiword_tables_match_python(self, c_kernel, kind):
        atoms, labels, table = _subsets(multiword_merge(kind), CAP)
        for walked in ((labels, table),
                       _walk(_flip(atoms, labels, table), CAP)):
            assert len(walked[0]) > 64
            self.flipped(c_kernel, len(atoms), *walked)

    # (natoms, labels, table) and its flipped program: the program that
    # the reversal built for Brzozowski's second walk before it moved
    # into the kernels, with the dead state's rows and report appended.
    # The dead state, last, is reached back from itself and from every
    # state with no move on that atom.
    @pytest.mark.parametrize("natoms, labels, table, program", [
        (2, (0, 1, 1), (1, 2, -1, 2, 2, -1),
         (4, 2, (0, 0, 0, 1, 1, 2, 4, 6, 8), (0, 2, 0, 1, 1, 3, 2, 3), (1, 2),
          (), (0, -1, -1, -1))),
        (0, (1,), (), (2, 0, (0,), (), (0,), (), (0, -1))),
        (2, (0,), (-1, -1), (2, 2, (0, 0, 0, 2, 4), (0, 1, 0, 1), (), (),
                             (0, -1))),
        (1, (1,), (0,), (2, 1, (0, 1, 2), (0, 1), (0,), (), (0, -1))),
        (1, (0, 1, 0), (1, -1, 1),
         (4, 1, (0, 0, 2, 2, 4), (0, 2, 1, 3), (1,), (), (0, -1, -1, -1))),
    ], ids=["two-atoms", "no-atoms", "no-moves", "self-loop", "two-into-one"])
    def test_fixed_tables(self, c_kernel, natoms, labels, table, program):
        n, ncls, *arrays = program
        assert self.flipped(c_kernel, natoms, ints(*labels),
                            ints(*table)) == (n, ncls,
                                              *(ints(*x) for x in arrays))

    def test_empty_table_has_no_start(self, c_kernel):
        for module in (_simkernel_py, c_kernel):
            with pytest.raises(IndexError):
                module.flip(1, ints(), ints())


class TestMinimizers:
    @settings(max_examples=200, deadline=None)
    @given(nfas())
    def test_state_counts_match_pair_marking_oracle(self, nfa):
        dfa = determinize(nfa)
        assume(dfa.state_count <= ORACLE_STATE_LIMIT)
        minimal = brute_force_minimal_states(dfa)
        assert minimize_hopcroft(dfa).state_count == minimal
        assert minimize_brzozowski(nfa).state_count == minimal

    @pytest.mark.parametrize("mode", START_MODES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hopcroft_output_is_the_minimal_dfa(self, c_kernel, mode, data):
        # Any automaton, as for Brzozowski: the NFA, and its DFA, whose
        # walk is that DFA.
        nfa = data.draw(nfas(mode))
        minimal = minimize_brzozowski(nfa)
        for kernel in (_simkernel_py, c_kernel):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(transform, "_kernel", kernel)
                for a in (nfa, determinize(nfa)):
                    hop = minimize_hopcroft(a)
                    assert validate(hop) == []
                    assert isomorphic(hop, minimal)
                    assert equivalent(nfa, hop)

    def test_hopcroft_walk_past_the_cap(self, kernel):
        nfa = compile_regex("[ab]*a[ab]{3}", SOD)
        assert not is_deterministic(nfa)
        size = determinize(nfa).state_count
        assert minimize_hopcroft(nfa, size).state_count == 16
        with pytest.raises(CapExceededError, match=rf"cap \({size - 1}\)") \
                as info:
            minimize_hopcroft(nfa, size - 1)
        assert info.value.cap == size - 1
        with pytest.raises(ValueError, match="at least 1"):
            minimize_hopcroft(nfa, 0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hopcroft_ignores_the_input_numbering(self, data):
        # The DFA beside an unreachable copy of itself, in any numbering:
        # the walk trims the copy and renumbers the rest breadth-first.
        dfa = determinize(data.draw(nfas()))
        n = dfa.state_count
        doubled = replace(dfa, state_count=2 * n,
                          edges=dfa.edges + tuple((s + n, c, d + n)
                                                  for s, c, d in dfa.edges),
                          accepts=dfa.accepts | {s + n for s in dfa.accepts})
        perm = data.draw(st.permutations(range(2 * n)))
        assert minimize_hopcroft(relabel(doubled, perm)).structurally_equal(
            minimize_hopcroft(dfa))

    def test_long_chain(self, kernel):
        # Moore-style rounds would need one round per state here, and a
        # refinement quadratic on a chain would not finish in time either.
        start = time.perf_counter()
        assert minimize_hopcroft(alternating_chain(20_000)).state_count == 20_001
        assert time.perf_counter() - start < 30


# Every string over BYTES of length at most 3.
WORDS = [b""] + [bytes([x]) for x in BYTES]
WORDS += [w + bytes([x]) for w in WORDS[1:] for x in BYTES]
WORDS += [w + bytes([x]) for w in WORDS[5:] for x in BYTES]


class TestOptimizeNfa:
    @settings(max_examples=200, deadline=None)
    @given(nfas())
    def test_preserves_language_and_never_adds_states(self, nfa):
        opt = optimize_nfa(nfa)
        assert opt.state_count <= nfa.state_count
        if not validate(nfa):  # the strategy also draws start-less NFAs
            assert validate(opt) == []
        assert equivalent(nfa, opt)
        assert [accepts(opt, w) for w in WORDS] == [accepts(nfa, w)
                                                   for w in WORDS]


def product_witness_length(da: Automaton, db: Automaton) -> int | None:
    """Reference equivalence of two DFAs: search their product, breadth
    first, for a pair of states that differ in acceptance, and return the
    length of the shortest word that reaches one, or None when there is
    none.  A missing transition is the dead side of the pair."""
    adj_a, adj_b = da.adjacency(), db.adjacency()
    dead = -1
    start = (0, 0)
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (p, q), depth = queue.popleft()
        if (p != dead and p in da.accepts) != (q != dead and q in db.accepts):
            return depth
        pairs = []
        if p != dead:
            pairs += [(c.mask, d, 0) for c, d in adj_a[p]]
        if q != dead:
            pairs += [(c.mask, d, 1) for c, d in adj_b[q]]
        for atom in partition_masks([m for m, _, _ in pairs]):
            target = [dead, dead]
            for m, d, side in pairs:
                if m & atom:
                    target[side] = d
            pair = tuple(target)
            if pair != (dead, dead) and pair not in seen:
                seen.add(pair)
                queue.append((pair, depth + 1))
    return None


def product_equivalent(da: Automaton, db: Automaton) -> bool:
    return product_witness_length(da, db) is None


@st.composite
def equivalence_pairs(draw, mode: str):
    """``(a, b)`` with ``b`` equivalent to ``a`` by construction, one
    accept away from it, or drawn on its own."""
    a = draw(nfas(mode))
    how = draw(st.sampled_from(["optimized", "determinized", "toggled",
                                "independent"]))
    if how == "optimized":
        return a, optimize_nfa(a)
    if how == "determinized":
        return a, determinize(a)
    if how == "toggled":
        s = draw(st.integers(0, a.state_count - 1))
        return a, replace(a, accepts=a.accepts ^ {s})
    return a, draw(nfas())


class TestEquivalent:
    @pytest.mark.parametrize("mode", START_MODES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_product_search(self, mode, data):
        a, b = data.draw(equivalence_pairs(mode))
        result = equivalent(a, b)
        assert result == product_equivalent(
            frozenset_determinize(a, 1 << 20),
            frozenset_determinize(b, 1 << 20))
        # True only if no string of length 3 or less separates a and b.
        agree = [accepts(a, w) for w in WORDS] == [accepts(b, w)
                                                  for w in WORDS]
        assert agree or not result

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cap_bounds_the_union_dfa(self, data):
        a, b = data.draw(equivalence_pairs(data.draw(
            st.sampled_from(START_MODES))))
        m = frozenset_determinize(merge_patterns([a, b]), 1 << 20).state_count
        assert equivalent(a, b, m) == equivalent(a, b)
        if m > 1:
            with pytest.raises(CapExceededError):
                equivalent(a, b, m - 1)
        with pytest.raises(ValueError, match="cap must be at least 1"):
            equivalent(a, b, 0)

    @pytest.mark.parametrize("mode", START_MODES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_sides_that_accept_nothing(self, mode, data):
        # With one side accepting nothing, the union has one report label,
        # which a walk counts 1 wherever it accepts.
        a = data.draw(nfas(mode))
        empty = replace(a, accepts=frozenset())
        assert equivalent(empty, empty)
        assert equivalent(a, empty) == equivalent(empty, a) == (
            minimize_brzozowski(a).accepts == frozenset())

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_inputs_own_component_labels_are_not_read(self, data):
        # Merged rules carry several labels each; equivalence depends only
        # on the languages.
        a, b = data.draw(equivalence_pairs(data.draw(
            st.sampled_from(START_MODES))))
        seed = data.draw(st.integers(0, 2**32))
        rules = regex_rules(seed, SOD) + regex_rules(seed + 1, ALL)
        merged = merge_patterns(rules, [5, 3, 8, 1, 0, 9])
        assert len(set(merged.component_labels.values())) == 6
        assert equivalent(merged, merged)
        assert equivalent(merged, determinize(merged))
        labeled = [replace(x, component_labels={
            s: s % 3 for s in range(x.state_count)}) for x in (a, b)]
        assert equivalent(*labeled) == equivalent(a, b)

    @pytest.mark.parametrize("mode", START_MODES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_witness_is_a_shortest_separating_word(self, mode, data):
        a, b = data.draw(equivalence_pairs(mode))
        word = _witness(a, b, CAP)
        shortest = product_witness_length(frozenset_determinize(a, CAP),
                                          frozenset_determinize(b, CAP))
        assert (word is None) == (shortest is None) == equivalent(a, b)
        if word is not None:
            assert accepts(a, word) != accepts(b, word)
            assert len(word) <= shortest

    # Atoms are spelled by their lowest byte: {0, 2} by 0.
    @pytest.mark.parametrize("first, second, word", [
        ("ab", "ac", b"ab"),
        ("a*", "a+", b""),
        ("a[\\x00-\\x02]b", "a\\x01b", b"a\x00b"),
        ("ab|cd", "cd", b"ab"),
        ("ab", "ab", None)])
    def test_witness_of_regexes(self, kernel, first, second, word):
        a, b = (compile_regex(x, SOD) for x in (first, second))
        assert _witness(a, b, CAP) == word
        assert _witness(b, a, CAP) == word

    def test_cap_can_fail_where_each_side_fits(self):
        a, b = compile_regex("a", SOD), compile_regex("b", SOD)
        assert [determinize(x, 2).state_count for x in (a, b)] == [2, 2]
        with pytest.raises(CapExceededError):
            equivalent(a, b, 2)
        assert not equivalent(a, b, 3)


class TestSpotCheckCap:
    # The report's spot check walks each row's pairs with the cap raised
    # by one, for merge_patterns' shared start.
    @settings(max_examples=200, deadline=None)
    @given(nfas())
    def test_pipeline_pairs_fit_one_state_above_the_dfa(self, raw):
        nfa = trim(remove_epsilon(raw))
        n = determinize(nfa).state_count
        assert equivalent(nfa, optimize_nfa(nfa), n + 1)
        assert equivalent(nfa, minimize_brzozowski(nfa), n + 1)
