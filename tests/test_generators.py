import itertools
import math

import pytest

from falab.core import StartKind, validate
from falab.generators import (DotStarSource, Pattern, RandomRecipe, SplitMix64,
                              compile_pattern, gen_dotstar, gen_hamming,
                              gen_levenshtein, gen_mesh_patterns,
                              gen_random_automaton, pattern_size)
from falab.transform import accepts


def edit_distance(a: bytes, b: bytes) -> int:
    """Classic DP, the independent oracle for the Levenshtein mesh."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def hamming_distance(a: bytes, b: bytes) -> int | None:
    if len(a) != len(b):
        return None
    return sum(x != y for x, y in zip(a, b))


def enumerate_strings(alphabet: bytes, max_len: int):
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield bytes(combo)


class TestSplitMix64:
    def test_published_sequence_for_seed_zero(self):
        # first outputs of the reference implementation with seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_sample_is_distinct_and_in_range(self):
        rng = SplitMix64(9)
        picks = rng.sample(100, 20)
        assert len(set(picks)) == 20
        assert all(0 <= p < 100 for p in picks)

    def test_sample_full_population(self):
        assert sorted(SplitMix64(3).sample(7, 7)) == list(range(7))


class TestDotStar:
    def test_shape(self):
        (p,) = gen_dotstar(1, 2, 2, 4, seed=7)
        assert isinstance(p.source, DotStarSource)
        assert len(p.source.prefix) == 2 and len(p.source.suffix) == 2
        assert ".*" in p.source.text

    def test_deterministic(self):
        assert gen_dotstar(3, 2, 3, 4, seed=5) == gen_dotstar(3, 2, 3, 4, seed=5)
        assert gen_dotstar(3, 2, 3, 4, seed=5) != gen_dotstar(3, 2, 3, 4, seed=6)

    def test_ids_are_sequential(self):
        assert [p.id for p in gen_dotstar(5, 1, 1, 2, seed=0)] == [0, 1, 2, 3, 4]

    def test_compiles_to_expected_language(self):
        (p,) = gen_dotstar(1, 2, 2, 4, seed=7)
        nfa = compile_pattern(p)
        assert accepts(nfa, p.source.prefix + b"xyz" + p.source.suffix)
        assert accepts(nfa, p.source.prefix + p.source.suffix)


class TestHammingMesh:
    def test_zero_distance_is_exact_match(self):
        mesh = gen_hamming(b"a", 0)
        assert accepts(mesh, b"a")
        assert not accepts(mesh, b"b")
        assert not accepts(mesh, b"aa")

    def test_exhaustive_length_three(self):
        mesh = gen_hamming(b"abc", 1)
        for s in enumerate_strings(b"abcx", 4):
            expected = (hamming_distance(s, b"abc") is not None
                        and hamming_distance(s, b"abc") <= 1)
            assert accepts(mesh, s) == expected, s

    def test_distance_saturates_length(self):
        mesh = gen_hamming(b"ab", 2)
        for s in enumerate_strings(b"abc", 3):
            assert accepts(mesh, s) == (len(s) == 2)

    def test_epsilon_free_and_acyclic(self):
        mesh = gen_hamming(b"abcd", 2)
        assert mesh.epsilon_edges == ()
        assert all(src < dst for src, _, dst in mesh.edges)

    def test_grid_minus_corner_size(self):
        n, d = 5, 2
        mesh = gen_hamming(b"abcde", d)
        expected = sum(min(i, d) + 1 for i in range(n + 1))
        assert mesh.state_count == expected

    def test_validates(self):
        assert validate(gen_hamming(b"xyz", 1)) == []


class TestLevenshteinMesh:
    def test_zero_distance(self):
        mesh = gen_levenshtein(b"ab", 0)
        for s in enumerate_strings(b"ab", 3):
            assert accepts(mesh, s) == (s == b"ab")

    def test_against_dp_oracle(self):
        mesh = gen_levenshtein(b"ab", 1)
        for s in enumerate_strings(b"abx", 3):
            assert accepts(mesh, s) == (edit_distance(s, b"ab") <= 1), s

    def test_monotone_in_distance(self):
        d0, d1 = gen_levenshtein(b"ab", 0), gen_levenshtein(b"ab", 1)
        for s in enumerate_strings(b"ab", 3):
            if accepts(d0, s):
                assert accepts(d1, s)

    def test_epsilon_edges_point_down_grid(self):
        mesh = gen_levenshtein(b"abc", 2)
        assert mesh.epsilon_edges
        assert all(src < dst for src, dst in mesh.epsilon_edges)

    def test_full_grid_size(self):
        assert gen_levenshtein(b"abcd", 2).state_count == 5 * 3

    def test_validates(self):
        assert validate(gen_levenshtein(b"xyz", 2)) == []


class TestRandomAutomaton:
    def test_transition_count_arithmetic(self):
        a = gen_random_automaton(RandomRecipe(4, 1.0, 0.0, 2, seed=1))
        assert len(a.edges) == 8  # 4 per symbol, 2 symbols

    def test_deterministic_generation(self):
        r = RandomRecipe(10, 1.25, 0.5, 2, seed=42)
        assert gen_random_automaton(r).structurally_equal(gen_random_automaton(r))

    def test_invariants_and_accept_count(self):
        a = gen_random_automaton(RandomRecipe(10, 1.25, 0.5, 2, seed=42))
        assert validate(a) == []
        assert len(a.accepts) == 5
        assert a.starts == {0: StartKind.START_OF_DATA}

    def test_rejects_impossible_density(self):
        with pytest.raises(ValueError):
            gen_random_automaton(RandomRecipe(3, 4.0, 0.0, 2, seed=0))

    @pytest.mark.parametrize("density, accept_density, message", [
        (math.inf, 0.5, "density must be positive and finite"),
        (math.nan, 0.5, "density must be positive and finite"),
        (1.5, math.inf, "accept_density must be in 0..1"),
        (1.5, math.nan, "accept_density must be in 0..1"),
    ])
    def test_rejects_non_finite_densities(self, density, accept_density,
                                          message):
        with pytest.raises(ValueError, match=message):
            gen_random_automaton(RandomRecipe(3, density, accept_density, 2,
                                              seed=0))

    def test_edges_unique_per_symbol(self):
        a = gen_random_automaton(RandomRecipe(6, 2.0, 0.2, 3, seed=9))
        seen = set()
        for src, cls, dst in a.edges:
            (sym,) = cls.values()
            assert (sym, src, dst) not in seen
            seen.add((sym, src, dst))


class TestMeshPatternSets:
    def test_lengths_and_distances(self):
        ps = gen_mesh_patterns("hamming", 10, 4, 8, (1, 2), 4, seed=3)
        assert len(ps) == 10
        for i, p in enumerate(ps):
            assert 4 <= len(p.source.pattern) <= 8
            assert p.source.distance == (1, 2)[i % 2]

    def test_distance_capped_at_length(self):
        ps = gen_mesh_patterns("levenshtein", 4, 1, 1, (3,), 2, seed=0)
        assert all(p.source.distance == 1 for p in ps)

    def test_pattern_size_axis(self):
        ps = gen_mesh_patterns("hamming", 3, 5, 5, (1,), 4, seed=8)
        assert [pattern_size(p) for p in ps] == [5, 5, 5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_mesh_patterns("manhattan", 1, 2, 3, (1,), 4, seed=0)

    @pytest.mark.parametrize("k", [0, 2])
    def test_empty_distance_list_rejected(self, k):
        with pytest.raises(ValueError, match="the distance list is empty"):
            gen_mesh_patterns("levenshtein", k, 3, 3, (), 8, 1)

    def test_every_generated_pattern_compiles_valid(self):
        for kind in ("hamming", "levenshtein"):
            for p in gen_mesh_patterns(kind, 6, 2, 6, (1, 2), 4, seed=5):
                assert validate(compile_pattern(p)) == []
