"""Exit codes of the falab subcommands (``simulate`` and ``active-rules``
are covered in ``test_cli_scan.py``).

Every subcommand exits 0 on a valid input, 1 for a missing file or an
invalid document, and 2 when a required argument is missing.
``equivalent`` also exits 1 when the two languages differ, and then
prints a shortest word that tells them apart.
"""

import json

import pytest

from falab.cli import main
from falab.core import (Automaton, StartKind, SymbolClass, is_deterministic,
                        isomorphic)
from falab.documents import (PatternSet, load_automaton, save_automaton,
                             save_pattern_set)
from falab.generators import Pattern, RegexSource, gen_dotstar
from falab.regex import MAX_NESTING, compile_regex
from falab.transform import accepts, determinize

from conftest import cli_with_python_kernel
from corpus import nested_groups

SOD = StartKind.START_OF_DATA


@pytest.fixture
def paths(tmp_path):
    """Placeholder values for the argument lists below."""
    save_automaton(compile_regex("ab", SOD), str(tmp_path / "ab.json"))
    save_automaton(compile_regex("a(b|b)", SOD), str(tmp_path / "abb.json"))
    save_automaton(compile_regex("ac", SOD), str(tmp_path / "ac.json"))
    save_automaton(determinize(compile_regex("ab", SOD)),
                   str(tmp_path / "dfa.json"))
    # One state, but a start state 3: well-formed JSON, invalid automaton.
    (tmp_path / "bad.json").write_text(json.dumps({
        "version": 1, "states": 1, "accepts": [], "edges": [],
        "starts": [{"id": 3, "kind": "all-input"}]}))
    save_pattern_set(PatternSet(gen_dotstar(3, 1, 1, 4, 5), SOD, 5),
                     str(tmp_path / "patterns.json"))
    (tmp_path / "bad_patterns.json").write_text(json.dumps({"version": 1}))
    return {"dir": str(tmp_path), "out": str(tmp_path / "out"),
            "missing": str(tmp_path / "missing.json"),
            **{name: str(tmp_path / f"{name}.json")
               for name in ("ab", "abb", "ac", "dfa", "bad", "patterns",
                            "bad_patterns")}}


GENERATE = ["generate", "dotstar", "--seed", "1", "--count", "2"]
REPORT = ["--seed", "0", "--out", "{out}"]

# (command, arguments, exit code)
CASES = [
    ("compile", ["--regex", "ab", "--start-kind", "start-of-data"], 0),
    ("compile", ["--patterns", "{patterns}", "--id", "1"], 0),
    ("compile", ["--patterns", "{missing}"], 1),
    ("compile", ["--patterns", "{bad_patterns}"], 1),
    ("compile", [], 2),
    ("generate", GENERATE[1:] + ["--out", "{out}"], 0),
    ("generate", GENERATE[1:] + ["--out", "{dir}/no/such/dir.json"], 1),
    ("generate", ["levenshtein", "--seed", "1", "--count", "2",
                  "--min-length", "5", "--max-length", "3", "--distance", "1",
                  "--out", "{out}"], 1),
    ("generate", ["dotstar", "--seed", "1", "--out", "{out}"], 2),
    ("optimize", ["{ab}", "--out", "{out}"], 0),
    ("optimize", ["{missing}"], 1),
    ("optimize", ["{bad}"], 1),
    ("optimize", [], 2),
    ("determinize", ["{ab}", "--out", "{out}"], 0),
    ("determinize", ["{missing}"], 1),
    ("determinize", ["{bad}"], 1),
    ("determinize", [], 2),
    ("minimize", ["{ab}", "--out", "{out}"], 0),
    ("minimize", ["{missing}"], 1),
    ("minimize", ["{bad}"], 1),
    ("minimize", [], 2),
    ("components", ["{ab}", "--out-prefix", "{out}"], 0),
    ("components", ["{missing}", "--out-prefix", "{out}"], 1),
    ("components", ["{bad}", "--out-prefix", "{out}"], 1),
    ("components", ["{ab}"], 2),
    ("merge", ["{ab}", "{ac}", "--out", "{out}"], 0),
    ("merge", ["{ab}", "{missing}"], 1),
    ("merge", ["{ab}", "{bad}"], 1),
    ("merge", [], 2),
    ("equivalent", ["{ab}", "{abb}"], 0),
    ("equivalent", ["{ab}", "{ac}"], 1),
    ("equivalent", ["{ab}", "{missing}"], 1),
    ("equivalent", ["{bad}", "{ab}"], 1),
    ("equivalent", ["{ab}"], 2),
    ("stats", ["{ab}"], 0),
    ("stats", ["{missing}"], 1),
    ("stats", ["{bad}"], 1),
    ("stats", [], 2),
    ("report-per-pattern", ["{patterns}"] + REPORT, 0),
    ("report-per-pattern", ["{missing}"] + REPORT, 1),
    ("report-per-pattern", ["{bad_patterns}"] + REPORT, 1),
    ("report-per-pattern", ["{patterns}", "--out", "{out}"], 2),
    ("report-merge", ["{patterns}"] + REPORT, 0),
    ("report-merge", ["{missing}"] + REPORT, 1),
    ("report-merge", ["{bad_patterns}"] + REPORT, 1),
    ("report-merge", ["{patterns}", "--seed", "0"], 2),
    # --id picks from a pattern set; the growth thresholds are constants.
    ("compile", ["--regex", "ab", "--start-kind", "all-input", "--id", "0"],
     2),
    ("report-per-pattern", ["{patterns}", "--r2-margin", "0.01"] + REPORT, 2),
    ("report-merge", ["{patterns}", "--poly-slope", "3"] + REPORT, 2),
    # A pattern set has at least one pattern.
    ("generate", ["dotstar", "--seed", "1", "--count", "-3", "--out",
                  "{out}"], 2),
    ("generate", ["dotstar", "--seed", "1", "--count", "0", "--out",
                  "{out}"], 2),
    # --cap bounds either minimizer's walks.
    ("minimize", ["{dfa}", "--minimizer", "hopcroft", "--cap", "1"], 1),
    ("minimize", ["{dfa}", "--minimizer", "hopcroft"], 0),
    ("minimize", ["{dfa}", "--minimizer", "brzozowski", "--cap", "1"], 1),
    ("minimize", ["{dfa}", "--minimizer", "hopcroft", "--cap", "0"], 2),
]


def exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@pytest.mark.parametrize("command, arguments, code", CASES,
                         ids=[f"{c}-{i}-exits-{code}"
                              for i, (c, _, code) in enumerate(CASES)])
def test_exit_code(paths, capsys, command, arguments, code):
    argv = [command] + [a.format(**paths) for a in arguments]
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    elif command == "equivalent" and "{ac}" in arguments:
        assert err == ""  # differing languages are not an error
    elif code == 1:
        assert err.startswith("falab: error: ")
        if "{missing}" in arguments:
            assert "missing.json" in err
        if "{bad}" in arguments:
            assert "invalid automaton" in err
    else:
        assert "usage: falab" in err


def test_every_subcommand_is_covered():
    from falab.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and "stats" in
               a.choices)
    covered = {c for c, _, _ in CASES} | {"simulate", "active-rules"}
    assert covered == set(sub.choices)
    for command in covered - {"simulate", "active-rules"}:
        assert {code for c, _, code in CASES if c == command} >= {0, 1, 2}


BAD_DOCUMENTS = {
    # file name: (content, stderr after "falab: error: {file}: ")
    "schema.json": ('{"version": 1, "start_kind": "all-input", "patterns": '
                    '[{"id": 0, "kind": "glob"}]}',
                    "/patterns/0/kind: unknown pattern kind 'glob'"),
    "empty.json": ("{}", "missing field 'version'"),
    "truncated.json": ('{"version": 1', "not valid JSON: "),
    "recipe.json": ('{"version": 1, "start_kind": "all-input", "patterns": '
                    '[{"id": 0, "kind": "levenshtein", "pattern": "", '
                    '"distance": 0}]}',
                    "/patterns/0: pattern must be nonempty"),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_report_merge_names_the_bad_file(tmp_path, capsys, name):
    content, message = BAD_DOCUMENTS[name]
    bad = tmp_path / name
    bad.write_text(content)
    assert main(["report-merge", str(bad), "--seed", "0",
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        f"falab: error: {bad}: {message}")


@pytest.mark.parametrize("content, message", [
    ('{"version": 1, "states": 1, "starts": [], "accepts": [], '
     '"edges": [{"src": 0, "dst": 0, "class": ""}]}',
     "/edges/0/class: empty symbol class"),
    ('{"version": 1, "states": ', "not valid JSON: "),
    ('{"version": 1, "states": 1, "accepts": [], "deterministic": true, '
     '"starts": [{"id": 0, "kind": "all-input"}], "edges": []}',
     "/deterministic: the automaton is not deterministic"),
])
def test_merge_names_the_bad_file_only(paths, capsys, content, message):
    bad = f"{paths['dir']}/bad_document.json"
    with open(bad, "w") as fh:
        fh.write(content)
    assert main(["merge", paths["ab"], bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"falab: error: {bad}: {message}")
    assert "ab.json" not in err


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 5000])
def test_compile_refuses_groups_nested_too_deep(capsys, depth):
    code = main(["compile", "--regex", nested_groups(depth), "--start-kind",
                 "start-of-data"])
    err = capsys.readouterr().err
    if depth == MAX_NESTING:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (1, f"falab: error: groups nested deeper than "
                                  f"{MAX_NESTING} at position {MAX_NESTING}\n")


def test_hopcroft_cap_bounds_its_walk(paths, capsys):
    argv = ["minimize", paths["dfa"], "--minimizer", "hopcroft", "--cap", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "falab: error: determinization exceeded the state cap (1); raise the "
        "cap to proceed\n")


def test_hopcroft_minimizes_an_nfa_document(tmp_path, capsys):
    nfa = compile_regex("(a|ab)*b[ab]", SOD)
    assert not is_deterministic(nfa)
    save_automaton(nfa, str(tmp_path / "nfa.json"))
    minimal = {}
    for minimizer in ("brzozowski", "hopcroft"):
        out = str(tmp_path / f"{minimizer}.json")
        assert main(["minimize", str(tmp_path / "nfa.json"), "--minimizer",
                     minimizer, "--out", out]) == 0
        minimal[minimizer] = load_automaton(out)
    assert capsys.readouterr().err == ""
    assert minimal["hopcroft"].state_count > 1
    assert isomorphic(minimal["hopcroft"], minimal["brzozowski"])


def test_brzozowski_fits_the_cap_where_the_report_does(tmp_path, capsys):
    # The forward walk has 16 subsets and the minimal DFA 14 states; the
    # reversed NFA's walk has over 256.
    save_automaton(compile_regex("[ab]{12}a[ab]*", StartKind.ALL_INPUT),
                   str(tmp_path / "nfa.json"))
    out = str(tmp_path / "minimal.json")
    assert main(["minimize", str(tmp_path / "nfa.json"), "--cap", "256",
                 "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert load_automaton(out).state_count == 14


def test_automaton_documents_are_written_alike(paths, capsys):
    # The --out file, stdout and save_automaton hold the same bytes.
    out = f"{paths['dir']}/determinized.json"
    assert main(["determinize", paths["ab"], "--out", out]) == 0
    assert main(["determinize", paths["ab"]]) == 0
    saved = f"{paths['dir']}/saved.json"
    save_automaton(determinize(load_automaton(paths["ab"])), saved)
    with open(out, "rb") as fh, open(saved, "rb") as fs:
        assert (fh.read() == capsys.readouterr().out.encode()
                == fs.read())


def test_inverted_length_range_names_both_lengths(paths, capsys):
    argv = ["generate", "levenshtein", "--seed", "1", "--count", "2",
            "--min-length", "5", "--max-length", "3", "--distance", "1",
            "--out", paths["out"]]
    assert main(argv) == 1
    assert capsys.readouterr().err == "falab: error: bad length range 5..3\n"


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e400",
                                    "1" + "0" * 400])
def test_report_refuses_a_number_beyond_the_floats(tmp_path, capsys, number):
    # Python's json module reads all five; none is a density.
    patterns = tmp_path / "random.json"
    patterns.write_text(
        '{"version": 1, "start_kind": "start-of-data", "patterns": [{"id": 0, '
        '"kind": "random", "states": 4, "density": %s, "accept_density": '
        '0.5, "alphabet_size": 2, "seed": 9}]}' % number)
    assert main(["report-per-pattern", str(patterns), "--seed", "0",
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == (
        f"falab: error: {patterns}: /patterns/0/density: expected a finite "
        f"number\n")


def refused_recipe(tmp_path, capsys, option: str, value: str) -> str:
    """The error of ``falab generate random`` on a valid recipe with one
    option set to ``value``, which must exit 1 and write no file."""
    out = tmp_path / "random.json"
    argv = ["generate", "random", "--seed", "1", "--count", "1", "--states",
            "4", "--density", "1.5", "--accept-density", "0.5",
            "--alphabet-size", "2", "--out", str(out)]
    argv[argv.index(option) + 1] = value
    assert main(argv) == 1
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("option", ["--density", "--accept-density"])
def test_generate_writes_no_infinite_density(tmp_path, capsys, option):
    # The recipe refuses it before the document could (JSON has no infinity).
    message = {"--density": "density must be positive and finite",
               "--accept-density": "accept_density must be in 0..1"}[option]
    assert refused_recipe(tmp_path, capsys, option, "inf") == (
        f"falab: error: {message}\n")


def test_stats_prints_every_field(tmp_path, capsys):
    # Two starts, an epsilon edge that counts toward fan-out, and an
    # average fan-out that is not a whole number.
    a = Automaton(state_count=3,
                  edges=((0, SymbolClass.of(b"a"), 1),
                         (0, SymbolClass.of(b"b"), 2),
                         (1, SymbolClass.of(b"a"), 2)),
                  epsilon_edges=((2, 0),),
                  starts={0: SOD, 1: StartKind.ALL_INPUT},
                  accepts=frozenset({2}))
    save_automaton(a, str(tmp_path / "a.json"))
    assert main(["stats", str(tmp_path / "a.json")]) == 0
    assert capsys.readouterr().out == (
        '{\n  "state_count": 3,\n  "transition_count": 4,\n'
        '  "max_fanout": 2,\n  "avg_fanout": 1.3333333333333333,\n'
        '  "accept_count": 1,\n  "start_count": 2\n}\n')


@pytest.mark.parametrize("option, value, message", [
    ("--density", "-1", "density must be positive and finite"),
    ("--states", "0", "states must be >= 1"),
    ("--accept-density", "2", "accept_density must be in 0..1"),
    ("--density", "5", "density 5.0 asks for 20 distinct transitions per "
                       "symbol but only 16 exist"),
])
def test_generate_writes_no_recipe_the_generator_refuses(tmp_path, capsys,
                                                         option, value,
                                                         message):
    assert refused_recipe(tmp_path, capsys, option, value) == (
        f"falab: error: {message}\n")


def test_report_spot_check_fits_where_the_rows_fit(tmp_path, capsys):
    # (ab|a)* determinizes into 3 states; the spot check's joint walk
    # also holds merge_patterns' shared start, so it needs 4.
    patterns = tmp_path / "one.json"
    save_pattern_set(PatternSet((Pattern(0, RegexSource("(ab|a)*")),),
                                StartKind.ALL_INPUT), str(patterns))
    out = tmp_path / "r.csv"
    assert main(["report-per-pattern", str(patterns), "--seed", "0",
                 "--cap", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[-1] == "0,4,3,3,1,2,1,,,,,ok"


@pytest.mark.parametrize("first, second, code, verdict", [
    ("ab", "abb", 0, "equivalent\n"),
    ("ab", "ac", 1, "not equivalent\nwitness: ab\n"),
], ids=["same-language", "different-languages"])
def test_equivalent_on_the_python_kernel(paths, capsys, first, second, code,
                                         verdict):
    argv = ["equivalent", paths[first], paths[second]]
    assert exit_code(argv) == code
    assert capsys.readouterr().out == verdict
    proc = cli_with_python_kernel(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, verdict, "")


@pytest.mark.parametrize("first, second, word, witness", [
    ("a\\(\\x00", "a\\(\\x01", b"a(\x00", "a\\(\\x00"),
    ("a*", "a+", b"", ""),
], ids=["escaped", "empty-word"])
def test_equivalent_prints_the_witness_as_pattern_text(tmp_path, capsys, first,
                                                       second, word, witness):
    automata = [compile_regex(text, SOD) for text in (first, second)]
    paths = [str(tmp_path / f"{k}.json") for k in range(2)]
    for a, path in zip(automata, paths):
        save_automaton(a, path)
    assert exit_code(["equivalent", *paths]) == 1
    assert capsys.readouterr().out == f"not equivalent\nwitness: {witness}\n"
    assert accepts(automata[0], word) != accepts(automata[1], word)
    assert accepts(compile_regex(witness, SOD), word)
