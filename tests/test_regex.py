import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from corpus import nested_groups, random_regex
from falab import regex
from falab.core import StartKind
from falab.generators import SplitMix64
from falab.regex import (MAX_NESTING, MAX_STATES, RegexParseError,
                         compile_regex, escape_literal, parse_class_string,
                         parse_regex, reference_match, render_class_string)
from falab.transform import accepts


def language(check, alphabet: bytes, max_len: int) -> set[bytes]:
    """All accepted strings up to max_len, by exhaustive enumeration."""
    out = set()
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            s = bytes(combo)
            if check(s):
                out.add(s)
    return out


def nfa_language(text: str, alphabet: bytes, max_len: int) -> set[bytes]:
    nfa = compile_regex(text)
    return language(lambda s: accepts(nfa, s), alphabet, max_len)


def oracle_language(text: str, alphabet: bytes, max_len: int) -> set[bytes]:
    return language(lambda s: reference_match(text, s), alphabet, max_len)


class TestCompileBasics:
    def test_literal_chain(self):
        nfa = compile_regex("ab")
        assert accepts(nfa, b"ab")
        assert not accepts(nfa, b"a")
        assert not accepts(nfa, b"abb")
        assert not accepts(nfa, b"")

    def test_dotstar_shape(self):
        nfa = compile_regex("pq.*rs")
        assert accepts(nfa, b"pqrs")
        assert accepts(nfa, b"pq anything at all rs")
        assert accepts(nfa, b"pq\x00\xffrs")
        assert not accepts(nfa, b"pqr")
        assert not accepts(nfa, b"xpqrs")

    def test_counted_repetition_exact_language(self):
        # exhaustive over {a}: a{3} accepts exactly "aaa"
        assert nfa_language("a{3}", b"a", 4) == {b"aaa"}

    def test_counted_range(self):
        assert nfa_language("a{1,3}", b"a", 4) == {b"a", b"aa", b"aaa"}

    def test_empty_pattern_accepts_empty(self):
        nfa = compile_regex("")
        assert accepts(nfa, b"")
        assert not accepts(nfa, b"a")

    def test_classes_and_negation(self):
        assert accepts(compile_regex("[a-c]x"), b"bx")
        assert not accepts(compile_regex("[^a-c]x"), b"bx")
        assert accepts(compile_regex("[^a-c]x"), b"dx")

    def test_escapes(self):
        assert accepts(compile_regex(r"\x41\n"), b"A\n")
        assert accepts(compile_regex(r"a\.b"), b"a.b")
        assert not accepts(compile_regex(r"a\.b"), b"axb")

    def test_start_kind_marked(self):
        nfa = compile_regex("ab", StartKind.ALL_INPUT)
        assert list(nfa.starts.values()) == [StartKind.ALL_INPUT]


class TestParseErrors:
    @pytest.mark.parametrize("bad, pos", [
        ("ab)", 2),
        ("(ab", 3),
        ("*a", 0),
        ("a**", 2),
        ("a{2", 3),
        ("a{3,1}", 6),
        ("[abc", 0),
        ("[]", 0),
        (r"a\q", 2),
        (r"\x5", 2),
    ])
    def test_position_reported(self, bad, pos):
        with pytest.raises(RegexParseError) as err:
            compile_regex(bad)
        assert err.value.position == pos
        assert f"position {pos}" in str(err.value)

    def test_repetition_bound_guard(self):
        with pytest.raises(RegexParseError):
            compile_regex("a{4097}")
        compile_regex("a{4096}")  # boundary is allowed

    def test_unbounded_counted_form_unsupported(self):
        with pytest.raises(RegexParseError):
            compile_regex("a{2,}")

    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 5000])
    def test_nesting_bound(self, depth):
        if depth == MAX_NESTING:
            assert accepts(compile_regex(nested_groups(depth)), b"a")
            return
        # The first group too deep is refused before the parser recurses
        # into it.
        with pytest.raises(RegexParseError,
                           match=f"groups nested deeper than {MAX_NESTING} "
                                 f"at position {MAX_NESTING}$") as err:
            compile_regex(nested_groups(depth))
        assert err.value.position == MAX_NESTING

    @pytest.mark.parametrize("text, position", [
        ("((a{4096}){4096})", 10),  # about 33.5M states: the quantifier
        ("(a{4096}){8}a", 12),      # one part too many
        ("(a{4096}){8}|a", 13),     # one option too many
        ("((a{4096}){8})*", 14),
    ])
    def test_expansion_bound(self, text, position):
        # Parsed only: compiling these would ask for the states refused.
        with pytest.raises(RegexParseError,
                           match=rf"more than {MAX_STATES} states at "
                                 rf"position {position}$") as err:
            parse_regex(text)
        assert err.value.position == position

    def test_expansion_bound_admits_its_own_size(self):
        parse_regex("(a{4096}){8}")  # 65,536 states, the bound itself
        assert compile_regex("a{4096}").state_count == 8192
        assert compile_regex("((a{16}){16}){16}").state_count == 8192

    def test_expansion_counts_the_compiled_states(self):
        # A pattern parses with its own state count as the bound and is
        # refused one below it, so the parser counts what _Builder builds.
        # (A part repeated zero times builds nothing, but is bounded too,
        # so a draw with one is left out.)
        rng = SplitMix64(17)
        texts = ["a|", "(|b)*", "a{0}b", "a{0,2}b?", "(a|bc)+", "a(){3}"]
        texts += [text for text in (random_regex(rng, 3, 3)
                                    for _ in range(200))
                  if "{0}" not in text and "{0,0}" not in text]
        sizes = [compile_regex(text).state_count for text in texts]
        with pytest.MonkeyPatch.context() as patch:
            for text, states in zip(texts, sizes):
                patch.setattr(regex, "MAX_STATES", states)
                parse_regex(text)
                patch.setattr(regex, "MAX_STATES", states - 1)
                with pytest.raises(RegexParseError, match="states at"):
                    parse_regex(text)


class TestAgainstReferenceMatcher:
    """The NFA path must agree with the direct backtracking matcher."""

    @pytest.mark.parametrize("text, alphabet", [
        ("a(b|c)*", b"abc"),
        ("(ab)+|(ba)?", b"ab"),
        ("a{2,3}b?", b"ab"),
        ("(a|b){0,2}c", b"abc"),
        ("[ab]c[^ab]", b"abc"),
        (".a.", b"ab"),
    ])
    def test_fixed_patterns(self, text, alphabet):
        assert nfa_language(text, alphabet, 5) == oracle_language(text, alphabet, 5)

    def test_seeded_patterns_up_to_length_six(self):
        rng = SplitMix64(99)
        for _ in range(25):
            text = random_regex(rng, 3, 3)
            assert (nfa_language(text, b"abcd", 6)
                    == oracle_language(text, b"abcd", 6)), text

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_agreement_is_seed_independent(self, seed):
        rng = SplitMix64(seed)
        text = random_regex(rng, 3, 3)
        assert nfa_language(text, b"abc", 4) == oracle_language(text, b"abc", 4)


class TestAgainstStdlibRe:
    """Second, fully independent oracle for the shared syntax subset."""

    def test_seeded_patterns(self):
        rng = SplitMix64(4242)
        for _ in range(40):
            text = random_regex(rng, 3, 4)
            compiled = re.compile(f"(?s:{text})".encode())
            mine = nfa_language(text, b"abcd", 5)
            theirs = language(lambda s: compiled.fullmatch(s) is not None,
                              b"abcd", 5)
            assert mine == theirs, text


class TestClassStrings:
    @pytest.mark.parametrize("text", ["a", "[a-c]", "[^a]", "[\\x00-\\x1f]",
                                      "[abx-z]", "[\\]]"])
    def test_round_trip(self, text):
        cls = parse_class_string(text)
        assert parse_class_string(render_class_string(cls)).mask == cls.mask

    def test_canonical_render(self):
        assert render_class_string(parse_class_string("[abc]")) == "[a-c]"
        assert render_class_string(parse_class_string("a")) == "a"

    def test_wide_classes_render_negated(self):
        cls = parse_class_string("[^a]")
        assert render_class_string(cls) == "[^a]"

    def test_escape_literal_round_trip(self):
        data = b"a.b\x00\xff*"
        assert accepts(compile_regex(escape_literal(data)), data)
