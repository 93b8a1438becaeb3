import json

import pytest
from hypothesis import given, settings, strategies as st

from falab.cli import main
from falab.core import Automaton, StartKind, SymbolClass, merge_parallel_edges
from falab.documents import save_automaton
from falab.generators import SplitMix64
from falab.regex import compile_regex
from falab.transform import connected_components, equivalent, merge_patterns

from corpus import random_regex

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
