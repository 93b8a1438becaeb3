import json
import math
import typing

import pytest
from hypothesis import given, settings, strategies as st

from falab import documents, generators
from falab.core import FULL_MASK, Automaton, StartKind, SymbolClass
from falab.documents import (DocumentError, PatternSet,
                             automaton_from_document, automaton_to_document,
                             load_automaton, load_pattern_set,
                             pattern_set_from_document,
                             pattern_set_to_document, save_automaton,
                             save_pattern_set, write_text_atomic)
from falab.experiment import emit_report
from falab.generators import (DotStarSource, HammingSource,
                              LevenshteinSource, Pattern, RandomRecipe,
                              RegexSource)
from falab.regex import MAX_NESTING, escape_literal

from corpus import nested_groups


class TestWriteTextAtomic:
    def test_writes_and_replaces(self, tmp_path):
        out = tmp_path / "out.txt"
        write_text_atomic(str(out), "one\n")
        write_text_atomic(str(out), "two\n")
        assert out.read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.mkdir()
        with pytest.raises(OSError, match="cannot write"):
            write_text_atomic(str(target), "data\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_open_names_the_path(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "out.csv"
        with pytest.raises(OSError, match="no-such-dir"):
            write_text_atomic(str(missing), "data\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_encode_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(str(tmp_path / "out.txt"), "\udc80")
        assert list(tmp_path.iterdir()) == []

    def test_report_into_a_directory_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "report.csv"
        target.mkdir()
        with pytest.raises(OSError, match="report.csv"):
            emit_report([], [], str(target))
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


SOD = StartKind.START_OF_DATA
ALL = StartKind.ALL_INPUT


def document_round_trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


class TestAutomatonRoundTrip:
    # One class per syntax: a safe byte, an escaped single byte, a range,
    # escaped bytes with an escaped range, a negation, the full alphabet.
    CLASSES = [SymbolClass.of(b"a"), SymbolClass.of(b"\x00"),
               SymbolClass.byte_range(0x61, 0x7A),
               SymbolClass.of(b"-]^\\\xff"),
               SymbolClass.of(b"a").complement(), SymbolClass.full()]

    def test_every_field_and_class_syntax(self, tmp_path):
        a = Automaton(
            state_count=3,
            edges=tuple((0, c, i % 3) for i, c in enumerate(self.CLASSES)),
            epsilon_edges=((1, 2), (2, 0)),
            starts={0: SOD, 2: ALL}, accepts=frozenset({1, 2}),
            component_labels={0: 7, 1: 7, 2: 9})
        rendered = [e["class"] for e in automaton_to_document(a)["edges"]]
        assert rendered == ["a", "[\\x00]", "[a-z]",
                            "[\\x2d\\x5c-\\x5e\\xff]", "[^a]", "[^]"]
        assert automaton_from_document(
            document_round_trip(automaton_to_document(a))) == a
        save_automaton(a, str(tmp_path / "a.json"))
        assert load_automaton(str(tmp_path / "a.json")) == a

    def test_deterministic_flag(self):
        # The writer leaves the claim out; a DFA loads with or without it.
        a = Automaton(state_count=2, edges=((0, SymbolClass.of(b"ab"), 1),),
                      starts={0: SOD}, accepts=frozenset({1}))
        doc = automaton_to_document(a)
        assert "deterministic" not in doc
        for claim in (True, False):
            assert automaton_from_document({**doc, "deterministic": claim}) == a

    def test_hex_literal_loads_as_its_bitset(self):
        mask = (1 << 0xFF) | (1 << 0x61) | 1
        doc = {"version": 1, "states": 1, "accepts": [0],
               "starts": [{"id": 0, "kind": "all-input"}],
               "edges": [{"src": 0, "dst": 0, "class": f"{mask:064X}"}]}
        a = automaton_from_document(doc)
        assert a.edges == ((0, SymbolClass(mask), 0),)
        again = automaton_to_document(a)
        assert again["edges"][0]["class"] == "[\\x00a\\xff]"
        assert automaton_from_document(again) == a

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_automata(self, data):
        n = data.draw(st.integers(1, 5))
        state = st.integers(0, n - 1)
        cls = st.integers(1, FULL_MASK).map(SymbolClass)
        a = Automaton(
            state_count=n,
            edges=tuple(data.draw(st.lists(st.tuples(state, cls, state),
                                           max_size=6))),
            epsilon_edges=tuple(data.draw(st.lists(st.tuples(state, state),
                                                   max_size=3))),
            starts=data.draw(st.dictionaries(state, st.sampled_from([SOD, ALL]))),
            accepts=data.draw(st.frozensets(state)),
            component_labels=data.draw(st.none() | st.dictionaries(
                state, st.integers(0, 3), min_size=1)))
        assert automaton_from_document(
            document_round_trip(automaton_to_document(a))) == a


class TestPatternSetRoundTrip:
    PATTERNS = (
        Pattern(0, RegexSource("a(b|c)*\\xff")),
        Pattern(3, DotStarSource(b"\x00a", b"\xffz")),
        Pattern(1, HammingSource(b"abc", 1)),
        Pattern(2, LevenshteinSource(b"\x80\x81", 2)),
        Pattern(9, RandomRecipe(5, 1.25, 0.5, 4, 77)),
    )

    @pytest.mark.parametrize("seed", [None, 42])
    @pytest.mark.parametrize("kind", [SOD, ALL])
    def test_every_pattern_kind(self, tmp_path, seed, kind):
        ps = PatternSet(self.PATTERNS, kind, seed)
        kinds = [e["kind"] for e in pattern_set_to_document(ps)["patterns"]]
        assert kinds == ["regex", "dotstar", "hamming", "levenshtein", "random"]
        assert pattern_set_from_document(
            document_round_trip(pattern_set_to_document(ps))) == ps
        save_pattern_set(ps, str(tmp_path / "ps.json"))
        assert load_pattern_set(str(tmp_path / "ps.json")) == ps


def mesh_source(cls):
    return st.binary(min_size=1).flatmap(
        lambda target: st.builds(cls, st.just(target),
                                 st.integers(0, len(target))))


def random_recipe(states: int):
    # A density up to ``states`` asks for at most states**2 transitions
    # per symbol, as many as exist.
    return st.builds(RandomRecipe, st.just(states),
                     st.floats(0, states, exclude_min=True),
                     st.floats(0, 1), st.integers(1, 256), st.integers())


# A source of each kind, drawn from the values its dataclass accepts.
SOURCES = {
    "regex": st.builds(RegexSource, st.binary().map(escape_literal)),
    "dotstar": st.builds(DotStarSource, st.binary(), st.binary()),
    "hamming": mesh_source(HammingSource),
    "levenshtein": mesh_source(LevenshteinSource),
    "random": st.integers(1, 10 ** 6).flatmap(random_recipe),
}


class TestPatternKinds:
    def test_every_source_class_has_a_kind(self):
        assert (set(documents._SOURCES.values())
                == set(typing.get_args(generators.PatternSource)))

    @pytest.mark.parametrize("kind", sorted(documents._SOURCES))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, kind, data):
        hints = typing.get_type_hints(documents._SOURCES[kind])
        source = data.draw(SOURCES[kind])
        ps = PatternSet((Pattern(data.draw(st.integers()), source),),
                        data.draw(st.sampled_from([SOD, ALL])))
        doc = pattern_set_to_document(ps)
        assert list(doc["patterns"][0]) == ["id", "kind", *hints]
        assert doc["patterns"][0]["kind"] == kind
        assert pattern_set_from_document(document_round_trip(doc)) == ps


AUTOMATON = {"version": 1, "states": 2,
             "starts": [{"id": 0, "kind": "start-of-data"}], "accepts": [1],
             "edges": [{"src": 0, "dst": 1, "class": "a"}],
             "epsilon_edges": [{"src": 1, "dst": 0}], "labels": {"0": 1}}


def edited(doc: dict, path: str, value=None, *, drop: bool = False) -> dict:
    """A deep copy of ``doc`` with the element at JSON path ``path`` set to
    ``value``, or removed with ``drop``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.strip("/").split("/")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    key = int(last) if isinstance(node, list) else last
    if drop:
        del node[key]
    else:
        node[key] = value
    return doc


# (document, JSON path of the error, message fragment): one case per
# DocumentError raise site in automaton_from_document and its helpers.
AUTOMATON_ERRORS = [
    ([], "", "expected an object"),
    (edited(AUTOMATON, "/edges", drop=True), "", "missing field 'edges'"),
    (edited(AUTOMATON, "/colour", 1), "/colour", "unknown field"),
    (edited(AUTOMATON, "/version", "1"), "/version", "expected an integer"),
    (edited(AUTOMATON, "/version", 2), "/version", "version mismatch"),
    (edited(AUTOMATON, "/states", 2.0), "/states", "expected an integer"),
    (edited(AUTOMATON, "/starts", {}), "/starts", "expected a list"),
    (edited(AUTOMATON, "/starts/0", 0), "/starts/0", "expected an object"),
    (edited(AUTOMATON, "/starts/0/kind", drop=True), "/starts/0",
     "missing field 'kind'"),
    (edited(AUTOMATON, "/starts/0/kind", "sometimes"), "/starts/0/kind",
     "unknown start kind 'sometimes'"),
    (edited(AUTOMATON, "/starts/0/kind", ["all-input"]), "/starts/0/kind",
     "unknown start kind"),
    (edited(AUTOMATON, "/starts/0/id", True), "/starts/0/id",
     "expected an integer"),
    (edited(AUTOMATON, "/accepts", 1), "/accepts", "expected a list"),
    (edited(AUTOMATON, "/accepts/0", "1"), "/accepts/0", "expected an integer"),
    (edited(AUTOMATON, "/edges", None), "/edges", "expected a list"),
    (edited(AUTOMATON, "/edges/0", [0, "a", 1]), "/edges/0",
     "expected an object"),
    (edited(AUTOMATON, "/edges/0/dst", drop=True), "/edges/0",
     "missing field 'dst'"),
    (edited(AUTOMATON, "/edges/0/src", "0"), "/edges/0/src",
     "expected an integer"),
    (edited(AUTOMATON, "/edges/0/dst", None), "/edges/0/dst",
     "expected an integer"),
    (edited(AUTOMATON, "/edges/0/class", 97), "/edges/0/class",
     "expected a string"),
    (edited(AUTOMATON, "/edges/0/class", ""), "/edges/0/class",
     "empty symbol class"),
    (edited(AUTOMATON, "/edges/0/class", "ff" * 31), "/edges/0/class",
     "expected 64 hex digits, got 62"),
    (edited(AUTOMATON, "/edges/0/class", "0" * 64), "/edges/0/class",
     "empty symbol class"),
    (edited(AUTOMATON, "/edges/0/class", "[a-"), "/edges/0/class",
     "bad class string"),
    (edited(AUTOMATON, "/epsilon_edges", 5), "/epsilon_edges",
     "expected a list"),
    (edited(AUTOMATON, "/epsilon_edges/0", [1, 0]), "/epsilon_edges/0",
     "expected an object"),
    (edited(AUTOMATON, "/epsilon_edges/0/src", drop=True), "/epsilon_edges/0",
     "missing field 'src'"),
    (edited(AUTOMATON, "/epsilon_edges/0/dst", 0.5), "/epsilon_edges/0/dst",
     "expected an integer"),
    (edited(AUTOMATON, "/deterministic", 1), "/deterministic",
     "expected a boolean"),
    (edited(AUTOMATON, "/deterministic", True), "/deterministic",
     "the automaton is not deterministic"),
    (edited(AUTOMATON, "/labels", [1]), "/labels", "expected an object"),
    (edited(AUTOMATON, "/labels/x", 1), "/labels/x",
     "state keys must be decimal"),
    (edited(AUTOMATON, "/labels/²", 1), "/labels/²",
     "state keys must be decimal"),
    (edited(AUTOMATON, "/labels/0", "1"), "/labels/0",
     "expected an integer label"),
    (edited(edited(AUTOMATON, "/labels/1", 5), "/labels/01", 6), "/labels/01",
     "duplicate label for state 1"),
]

PATTERN_SET = {"version": 1, "start_kind": "all-input", "seed": 3,
               "patterns": [
                   {"id": 0, "kind": "regex", "text": "ab"},
                   {"id": 1, "kind": "dotstar", "prefix": "a", "suffix": "b"},
                   {"id": 2, "kind": "levenshtein", "pattern": "ab",
                    "distance": 1},
                   {"id": 3, "kind": "random", "states": 4, "density": 1.5,
                    "accept_density": 0.5, "alphabet_size": 2, "seed": 9}]}

# The same for pattern_set_from_document and _entry_to_pattern.
PATTERN_SET_ERRORS = [
    ("[]", "", "expected an object"),
    (edited(PATTERN_SET, "/start_kind", drop=True), "",
     "missing field 'start_kind'"),
    (edited(PATTERN_SET, "/comment", ""), "/comment", "unknown field"),
    (edited(PATTERN_SET, "/version", None), "/version", "expected an integer"),
    (edited(PATTERN_SET, "/version", 0), "/version", "version mismatch"),
    (edited(PATTERN_SET, "/start_kind", "anywhere"), "/start_kind",
     "unknown start kind 'anywhere'"),
    (edited(PATTERN_SET, "/start_kind", {}), "/start_kind",
     "unknown start kind"),
    (edited(PATTERN_SET, "/patterns", "ab"), "/patterns", "expected a list"),
    (edited(PATTERN_SET, "/patterns/1", "ab"), "/patterns/1",
     "expected an object"),
    (edited(PATTERN_SET, "/patterns/1/kind", drop=True), "/patterns/1",
     "missing field 'kind'"),
    (edited(PATTERN_SET, "/patterns/1/kind", "glob"), "/patterns/1/kind",
     "unknown pattern kind 'glob'"),
    (edited(PATTERN_SET, "/patterns/1/kind", ["regex"]), "/patterns/1/kind",
     "unknown pattern kind"),
    (edited(PATTERN_SET, "/patterns/1/suffix", drop=True), "/patterns/1",
     "missing field 'suffix'"),
    (edited(PATTERN_SET, "/patterns/0/distance", 1), "/patterns/0/distance",
     "unknown field"),
    (edited(PATTERN_SET, "/patterns/2/id", "2"), "/patterns/2/id",
     "expected an integer"),
    (edited(PATTERN_SET, "/patterns/0/text", ["ab"]), "/patterns/0/text",
     "expected a string"),
    (edited(PATTERN_SET, "/patterns/1/prefix", 0), "/patterns/1/prefix",
     "expected a string"),
    (edited(PATTERN_SET, "/patterns/2/pattern", "aĀ"),
     "/patterns/2/pattern", "characters above U+00FF are not bytes"),
    (edited(PATTERN_SET, "/patterns/2/distance", 1.0),
     "/patterns/2/distance", "expected an integer"),
    (edited(PATTERN_SET, "/patterns/3/density", "1.5"),
     "/patterns/3/density", "expected a number"),
    (edited(PATTERN_SET, "/patterns/3/accept_density", None),
     "/patterns/3/accept_density", "expected a number"),
    (edited(PATTERN_SET, "/patterns/3/alphabet_size", 2.5),
     "/patterns/3/alphabet_size", "expected an integer"),
    (edited(PATTERN_SET, "/patterns/3/density", math.inf),
     "/patterns/3/density", "expected a finite number"),
    (edited(PATTERN_SET, "/patterns/3/density", 10 ** 400),
     "/patterns/3/density", "expected a finite number"),
    (edited(PATTERN_SET, "/patterns/3/accept_density", math.nan),
     "/patterns/3/accept_density", "expected a finite number"),
    (edited(PATTERN_SET, "/patterns/3/accept_density", -math.inf),
     "/patterns/3/accept_density", "expected a finite number"),
    (edited(PATTERN_SET, "/patterns/3/id", 0), "/patterns",
     "pattern ids must be unique"),
    # Values of the right type that the source dataclass refuses.
    (edited(PATTERN_SET, "/patterns/0/text", "a("), "/patterns/0",
     "unbalanced '(' at position 2"),
    (edited(PATTERN_SET, "/patterns/2/pattern", ""), "/patterns/2",
     "pattern must be nonempty"),
    (edited(PATTERN_SET, "/patterns/2/distance", 3), "/patterns/2",
     "distance must be in 0..len(pattern)"),
    (edited(edited(PATTERN_SET, "/patterns/2/kind", "hamming"),
            "/patterns/2/distance", 5), "/patterns/2",
     "distance must be in 0..len(pattern)"),
    (edited(PATTERN_SET, "/patterns/3/states", 0), "/patterns/3",
     "states must be >= 1"),
    (edited(PATTERN_SET, "/patterns/3/density", -1), "/patterns/3",
     "density must be positive and finite"),
    (edited(PATTERN_SET, "/patterns/3/accept_density", 1.5), "/patterns/3",
     "accept_density must be in 0..1"),
    (edited(PATTERN_SET, "/patterns/3/alphabet_size", 257), "/patterns/3",
     "alphabet_size must be in 1..256"),
    (edited(PATTERN_SET, "/patterns/3/density", 5), "/patterns/3",
     "density 5.0 asks for 20 distinct transitions per symbol but only 16"),
    (edited(PATTERN_SET, "/seed", "3"), "/seed", "expected an integer"),
]


def error_ids(cases):
    return [f"{path or 'root'}-{message}" for _, path, message in cases]


class TestDocumentErrors:
    @pytest.mark.parametrize("doc, path, message", AUTOMATON_ERRORS,
                             ids=error_ids(AUTOMATON_ERRORS))
    def test_automaton(self, doc, path, message):
        with pytest.raises(DocumentError) as exc:
            automaton_from_document(doc)
        assert exc.value.path == path
        assert message in exc.value.message
        assert str(exc.value) == ": ".join(filter(None, (path,
                                                          exc.value.message)))

    @pytest.mark.parametrize("doc, path, message", PATTERN_SET_ERRORS,
                             ids=error_ids(PATTERN_SET_ERRORS))
    def test_pattern_set(self, doc, path, message):
        with pytest.raises(DocumentError) as exc:
            pattern_set_from_document(doc)
        assert exc.value.path == path
        assert message in exc.value.message

    @pytest.mark.parametrize("field", ["density", "accept_density"])
    def test_a_boolean_density_is_not_a_number(self, field):
        with pytest.raises(DocumentError) as exc:
            pattern_set_from_document(
                edited(PATTERN_SET, f"/patterns/3/{field}", True))
        assert exc.value.path == f"/patterns/3/{field}"
        assert exc.value.message == "expected a number"

    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 5000])
    def test_regex_groups_nested_too_deep(self, tmp_path, depth):
        # As falab report-per-pattern loads it: the entry is refused with
        # its path, not with a RecursionError.
        file = tmp_path / "deep.json"
        file.write_text(json.dumps(edited(PATTERN_SET, "/patterns/0/text",
                                          nested_groups(depth))))
        if depth == MAX_NESTING:
            ps = load_pattern_set(str(file))
            assert ps.patterns[0].source.text == nested_groups(depth)
            return
        with pytest.raises(DocumentError) as exc:
            load_pattern_set(str(file))
        assert exc.value.path == "/patterns/0"
        assert exc.value.message == (f"groups nested deeper than "
                                     f"{MAX_NESTING} at position "
                                     f"{MAX_NESTING}")

    def test_the_fixtures_themselves_load(self):
        assert automaton_from_document(AUTOMATON).state_count == 2
        assert len(pattern_set_from_document(PATTERN_SET).patterns) == 4

    @pytest.mark.parametrize("load, doc, path", [
        (load_automaton, edited(AUTOMATON, "/edges/0/class", ""),
         "/edges/0/class"),
        (load_pattern_set, edited(PATTERN_SET, "/patterns/1/kind", "glob"),
         "/patterns/1/kind"),
        (load_pattern_set, edited(PATTERN_SET, "/patterns/3/density", -1),
         "/patterns/3"),
    ])
    def test_a_file_load_names_the_file_first(self, tmp_path, load, doc,
                                              path):
        file = str(tmp_path / "doc.json")
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        with pytest.raises(DocumentError) as exc:
            load(file)
        assert (exc.value.file, exc.value.path) == (file, path)
        assert str(exc.value).startswith(f"{file}: {path}: ")

    @pytest.mark.parametrize("load", [load_automaton, load_pattern_set])
    @pytest.mark.parametrize("content", [b"{\"version\": 1", b"\xff\xfe{}",
                                         b"{}"])
    def test_a_bad_file_is_named(self, tmp_path, load, content):
        file = str(tmp_path / "doc.json")
        (tmp_path / "doc.json").write_bytes(content)
        with pytest.raises(DocumentError) as exc:
            load(file)
        assert exc.value.file == file and exc.value.path == ""
        expected = "missing field" if content == b"{}" else "not valid JSON"
        assert str(exc.value).startswith(f"{file}: {expected}")
