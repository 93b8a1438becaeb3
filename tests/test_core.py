import pytest

from falab.core import (Automaton, StartKind, SymbolClass, canonicalize,
                        is_deterministic, isomorphic, relabel, stats,
                        validate)
from falab.documents import (DocumentError, automaton_from_document,
                             automaton_to_document)
from falab.generators import RandomRecipe, gen_random_automaton
from falab.regex import compile_regex
from falab.transform import determinize, minimize_brzozowski

SOD = StartKind.START_OF_DATA


def chain(*labels, start=0):
    """q0 -labels[0]-> q1 -labels[1]-> ... with the last state accepting."""
    edges = tuple((i, SymbolClass.of(c), i + 1) for i, c in enumerate(labels))
    return Automaton(state_count=len(labels) + 1, edges=edges,
                     starts={start: SOD}, accepts=frozenset([len(labels)]))


class TestSymbolClass:
    def test_membership(self):
        cls = SymbolClass.of(b"ac")
        assert ord("a") in cls and ord("c") in cls
        assert ord("b") not in cls

    def test_range_and_complement(self):
        cls = SymbolClass.byte_range(0, 254)
        assert cls.size == 255
        assert list(cls.complement().values()) == [255]

    def test_set_operations(self):
        a, b = SymbolClass.of(b"ab"), SymbolClass.of(b"bc")
        assert (a | b).size == 3
        assert list((a & b).values()) == [ord("b")]

    def test_full_covers_alphabet(self):
        assert SymbolClass.full().size == 256

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SymbolClass.of([300])


class TestValidate:
    def test_well_formed_chain(self):
        assert validate(chain("a", "b")) == []

    def test_edge_target_out_of_range(self):
        a = Automaton(state_count=3,
                      edges=((0, SymbolClass.of(b"a"), 5),),
                      starts={0: SOD}, accepts=frozenset([2]))
        assert any("edge target out of range" in p for p in validate(a))

    def test_nondeterministic_choice_flagged(self):
        # A well-formed NFA: a document that claims it is a DFA is
        # refused where the claim is read.
        a = Automaton(state_count=3,
                      edges=((0, SymbolClass.of(b"a"), 1),
                             (0, SymbolClass.of(b"ab"), 2)),
                      starts={0: SOD}, accepts=frozenset([2]))
        assert validate(a) == [] and not is_deterministic(a)
        with pytest.raises(DocumentError) as exc:
            automaton_from_document(
                {**automaton_to_document(a), "deterministic": True})
        assert exc.value.path == "/deterministic"

    def test_empty_class_rejected(self):
        a = Automaton(state_count=2, edges=((0, SymbolClass(0), 1),),
                      starts={0: SOD}, accepts=frozenset([1]))
        assert any("empty symbol class" in p for p in validate(a))

    def test_missing_start(self):
        a = Automaton(state_count=1, accepts=frozenset([0]))
        assert "no start state" in validate(a)

    def test_label_boundary_crossing(self):
        a = Automaton(state_count=2, edges=((0, SymbolClass.of(b"a"), 1),),
                      starts={0: SOD}, accepts=frozenset([1]),
                      component_labels={0: 0, 1: 1})
        assert any("crosses component label boundary" in p for p in validate(a))


class TestStats:
    def test_chain(self):
        s = stats(chain("a", "b"))
        assert (s.state_count, s.transition_count, s.max_fanout) == (3, 2, 1)

    def test_single_state(self):
        s = stats(Automaton(state_count=1, starts={0: SOD}))
        assert (s.state_count, s.transition_count, s.max_fanout) == (1, 0, 0)

    def test_star_fanout(self):
        a = Automaton(state_count=4,
                      edges=tuple((0, SymbolClass.of(b"a"), i)
                                  for i in (1, 2, 3)),
                      starts={0: SOD}, accepts=frozenset([1]))
        assert stats(a).max_fanout == 3

    def test_epsilon_counts_in_fanout(self):
        a = Automaton(state_count=2, epsilon_edges=((0, 1),),
                      starts={0: SOD}, accepts=frozenset([1]))
        s = stats(a)
        assert s.transition_count == 1 and s.max_fanout == 1

    def test_max_at_least_avg(self):
        for seed in range(5):
            a = gen_random_automaton(RandomRecipe(8, 1.5, 0.5, 3, seed))
            s = stats(a)
            assert s.max_fanout >= s.avg_fanout >= 0


class TestCanonicalize:
    def test_relabels_chain(self):
        scrambled = relabel(chain("a", "b"), [2, 0, 1])
        canon = canonicalize(scrambled)
        assert canon.starts == {0: SOD}
        assert canon.accepts == frozenset([2])
        assert [(s, d) for s, _, d in canon.edges] == [(0, 1), (1, 2)]

    def test_idempotent(self):
        a = compile_regex("(ab|cd)*x")
        assert canonicalize(canonicalize(a)).structurally_equal(canonicalize(a))

    def test_different_numberings_converge(self):
        dfa = determinize(compile_regex("(a|b)*abb"))
        shuffled = relabel(dfa, [(i + 3) % dfa.state_count
                                 for i in range(dfa.state_count)])
        assert canonicalize(dfa).structurally_equal(canonicalize(shuffled))

    def test_unreachable_states_appended(self):
        a = Automaton(state_count=3, edges=((0, SymbolClass.of(b"a"), 1),),
                      starts={0: SOD}, accepts=frozenset([1]))
        canon = canonicalize(a)
        assert canon.state_count == 3
        assert validate(canon) == []

    def test_preserves_counts(self):
        a = compile_regex("a(b|c)+")
        canon = canonicalize(a)
        pre, post = stats(a), stats(canon)
        assert pre.state_count == post.state_count
        assert pre.transition_count == post.transition_count
        assert pre.accept_count == post.accept_count

    def test_valid_stays_valid(self):
        for seed in range(5):
            a = gen_random_automaton(RandomRecipe(10, 1.2, 0.4, 3, seed))
            assert validate(a) == []
            assert validate(canonicalize(a)) == []


class TestIsomorphic:
    def test_relabeled_copy(self):
        dfa = determinize(compile_regex("ab"))
        assert isomorphic(dfa, relabel(dfa, [2, 0, 1]))

    def test_size_mismatch(self):
        assert not isomorphic(determinize(compile_regex("ab")),
                              determinize(compile_regex("abc")))

    def test_distinct_literals(self):
        a = minimize_brzozowski(compile_regex("ab"))
        b = minimize_brzozowski(compile_regex("ac"))
        assert not isomorphic(a, b)

    def test_rejects_nondeterministic(self):
        nfa = compile_regex("a|b")
        with pytest.raises(ValueError):
            isomorphic(nfa, nfa)

    def test_equivalence_relation_on_triples(self):
        dfas = [minimize_brzozowski(compile_regex(t))
                for t in ("a(b|c)", "ab|ac", "a[bc]")]
        relabeled = [relabel(d, list(reversed(range(d.state_count))))
                     for d in dfas]
        for x, y in zip(dfas, relabeled):
            assert isomorphic(x, x)
            assert isomorphic(x, y) == isomorphic(y, x)
        assert isomorphic(dfas[0], dfas[1])
        assert isomorphic(dfas[1], dfas[2])
        assert isomorphic(dfas[0], dfas[2])
