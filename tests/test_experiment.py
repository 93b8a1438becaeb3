"""The report pipeline's self-checks, its counts against the oracles, its
cap boundary, its timing cells, and growth classification (each label
and each rejected input)."""

import importlib.util
import math
import re
import sys
import time
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from falab import _simkernel_py, experiment, transform
from falab.cli import main
from falab.core import Automaton, StartKind, isomorphic, stats
from falab.documents import PatternSet, save_pattern_set
from falab.experiment import (CAP_TOKEN, GrowthLabel, ReportRow,
                              classify_growth, per_pattern_experiment)
from falab.generators import Pattern, RegexSource, compile_pattern, gen_dotstar
from falab.regex import compile_regex
from falab.transform import (DEFAULT_STATE_CAP, ORACLE_STATE_LIMIT,
                             CapExceededError, _table_automaton,
                             brute_force_minimal_states, determinize,
                             merge_patterns, minimize_brzozowski,
                             minimize_hopcroft, remove_epsilon, trim)

from corpus import START_MODES, alternating_chain, nfas

SOD = StartKind.START_OF_DATA
BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_language_change_fails_the_spot_check(monkeypatch):
    monkeypatch.setattr(experiment, "optimize_nfa",
                        lambda nfa: compile_regex("zz", SOD))
    with pytest.raises(AssertionError,
                       match="pipeline changed the language on key 7: the "
                             "optimized NFA and the NFA differ on 'ab'$"):
        per_pattern_experiment([Pattern(7, RegexSource("ab"))], seed=0)


def drop_accepts(labels, table):
    labels[:] = array("i", [0]) * len(labels)


def drop_moves(labels, table):
    table[:] = array("i", [-1]) * len(table)


def accept_at_start(labels, table):
    labels[0] = 1


@pytest.mark.parametrize("corrupt, word", [
    (drop_accepts, "a\\(b"), (drop_moves, "a\\(b"), (accept_at_start, "")])
def test_corrupted_minimal_table_fails_the_spot_check(corrupt, word):
    result = experiment._run_pipeline(
        7, compile_regex("a\\(b", SOD), DEFAULT_STATE_CAP)
    experiment._spot_check([result], 0, DEFAULT_STATE_CAP)
    corrupt(*result.mdfa[1:])
    with pytest.raises(AssertionError,
                       match=re.escape(f"on key 7: the minimal DFA and the "
                                       f"NFA differ on '{word}'") + "$"):
        experiment._spot_check([result], 0, DEFAULT_STATE_CAP)


def test_minimizer_disagreement_fails_the_report(monkeypatch):
    refine = transform._refine

    def one_block_too_many(*args):
        blocks = refine(*args)
        return blocks + [max(blocks) + 1]

    monkeypatch.setattr(transform, "_refine", one_block_too_many)
    with pytest.raises(AssertionError,
                       match="minimizer disagreement on key 7: brzozowski 3 "
                             "vs hopcroft 4$"):
        per_pattern_experiment([Pattern(7, RegexSource("ab"))], seed=0)


def assert_counts_from_the_table(raw):
    """The row's minimal-DFA cells, read off Brzozowski's table, equal the
    stats of the minimal DFA as an Automaton."""
    row = experiment._run_pipeline(0, raw, DEFAULT_STATE_CAP).row
    mdfa = stats(minimize_brzozowski(trim(remove_epsilon(raw))))
    assert (row.mdfa_states, row.mdfa_max_fanout) == (mdfa.state_count,
                                                      mdfa.max_fanout)


@pytest.mark.parametrize("mode", START_MODES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_counts_match_the_automaton(mode, data):
    assert_counts_from_the_table(data.draw(nfas(mode)))


@pytest.mark.parametrize("accepts", [frozenset(), frozenset([0])])
@pytest.mark.parametrize("kind", [SOD, StartKind.ALL_INPUT])
def test_table_counts_of_an_automaton_without_edges(accepts, kind):
    # No edges: no atoms, so every table row is empty.
    raw = Automaton(state_count=1, starts={0: kind}, accepts=accepts)
    assert_counts_from_the_table(raw)
    assert experiment._max_fanout(0, array("i")) == 0


def seed_one_report_automata():
    """The 98 automata the benchmark's report workloads run the pipeline
    on at seed 1: 8 dot-star sets merged k = 1..7, and 42 mesh patterns."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for name, command in (("dotstar-merge", "report-merge"),
                          ("mesh-per-pattern", "report-per-pattern")):
        workload = workloads.ReportWorkload(name, command, workloads.FULL)
        for ps in workload._pattern_sets(1):
            compiled = [compile_pattern(p, ps.start_kind)
                        for p in sorted(ps.patterns, key=lambda p: p.id)]
            if workload.merge:
                for k in range(1, len(compiled) + 1):
                    yield merge_patterns(compiled[:k])
            else:
                yield from compiled


def test_table_counts_on_the_seed_one_report_automata():
    automata = list(seed_one_report_automata())
    assert len(automata) == 98
    for raw in automata:
        assert_counts_from_the_table(raw)


def assert_pipeline_minimizes_like_brzozowski(raw, c_kernel):
    """On both kernels, the pipeline's minimal table is
    ``minimize_brzozowski``'s DFA of the NFA, and the pipeline's Hopcroft
    refinement has one live block per row of that table (one for the
    empty language).  Both take one route, so the table is also checked
    against Hopcroft's quotient and, where the DFA is small enough, the
    pair-marking oracle."""
    refine, refined = transform._refine, []

    def keep(program):
        refined.append(refine(program))
        return refined[-1]

    for kernel in (_simkernel_py, c_kernel):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transform, "_kernel", kernel)
            patch.setattr(transform, "_refine", keep)
            result = experiment._run_pipeline(0, raw, DEFAULT_STATE_CAP)
            minimal = minimize_brzozowski(result.nfa)
        atoms, labels, table = result.mdfa
        mdfa = _table_automaton(atoms, labels, table)
        assert mdfa.structurally_equal(minimal)
        blocks = refined.pop()
        assert max(len(set(blocks) - {blocks[-1]}), 1) == len(labels)
    assert isomorphic(mdfa, minimize_hopcroft(result.nfa))
    dfa = determinize(result.nfa)
    if dfa.state_count <= ORACLE_STATE_LIMIT:
        assert brute_force_minimal_states(dfa) == len(labels)


@pytest.mark.parametrize("mode", START_MODES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pipeline_minimal_dfa_is_brzozowskis(c_kernel, mode, data):
    assert_pipeline_minimizes_like_brzozowski(data.draw(nfas(mode)), c_kernel)


def test_pipeline_minimal_dfa_on_the_seed_one_report_automata(c_kernel):
    for raw in seed_one_report_automata():
        assert_pipeline_minimizes_like_brzozowski(raw, c_kernel)


def pipeline_dfa(pattern: Pattern):
    """The DFA of the NFA that the pipeline determinizes."""
    return determinize(trim(remove_epsilon(compile_pattern(pattern))))


@pytest.mark.parametrize("mode", START_MODES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_counts_match_the_oracles(mode, data):
    raw = data.draw(nfas(mode))
    dfa = determinize(trim(remove_epsilon(raw)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "compile_pattern", lambda p, kind: raw)
        [row] = per_pattern_experiment([Pattern(0, RegexSource("x"))], seed=0)
    assert row.status == "ok"
    assert row.dfa_states == dfa.state_count
    assert row.mdfa_states == brute_force_minimal_states(dfa)


def test_long_chain(kernel):
    # A refinement in rounds, one per distinguishing length, would need
    # 20,000 rounds here; the subset walks hold 20,001 single-state
    # subsets, spread over 313 bitset words.
    start = time.perf_counter()
    row = experiment._run_pipeline(1, alternating_chain(20_000),
                                   DEFAULT_STATE_CAP).row
    assert time.perf_counter() - start < 30
    assert (row.dfa_states, row.mdfa_states, row.status) == (20_001, 20_001,
                                                             "ok")


@pytest.mark.parametrize("text", ["ab", "(a|b)*c", "a[bc]d|ac*"])
def test_cap_boundary(text):
    pattern = Pattern(3, RegexSource(text))
    m = pipeline_dfa(pattern).state_count
    [row] = per_pattern_experiment([pattern], seed=0, cap=m)
    assert (row.status, row.dfa_states) == ("ok", m)
    [row] = per_pattern_experiment([pattern], seed=0, cap=m - 1)
    assert row.status == CAP_TOKEN
    assert row.dfa_states is None and row.mdfa_states is None


def test_reverse_pass_over_the_cap_keeps_the_dfa_count():
    # The reverse language [ab]*a[ab]{3} needs 16 states to remember the
    # last four bytes; the forward DFA only counts to four.
    pattern = Pattern(3, RegexSource("[ab]{3}a[ab]*"))
    m = pipeline_dfa(pattern).state_count
    [row] = per_pattern_experiment([pattern], seed=0, cap=m)
    assert (row.status, row.dfa_states, row.mdfa_states) == (CAP_TOKEN, m,
                                                             None)


@pytest.mark.parametrize("mode", START_MODES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_brzozowski_passes_the_cap_where_the_report_does(mode, data):
    nfa = trim(remove_epsilon(data.draw(nfas(mode))))
    n = determinize(nfa).state_count
    for cap in sorted({1, max(n - 1, 1), n, n + 1, 4 * n}):
        row = experiment._run_pipeline(0, nfa, cap).row
        try:
            states = minimize_brzozowski(nfa, cap).state_count
        except CapExceededError:
            states = None
        assert (states is None) == (row.status == CAP_TOKEN)
        assert states == row.mdfa_states


def test_brzozowski_walks_the_automaton_first():
    # All-input [ab]{12}a[ab]* determinizes into 16 subsets; the subsets
    # of its reversal remember which of the last 13 bytes were a's.
    nfa = compile_regex("[ab]{12}a[ab]*", StartKind.ALL_INPUT)
    row = experiment._run_pipeline(0, nfa, 256).row
    assert (row.dfa_states, row.mdfa_states, row.status) == (16, 14, "ok")
    assert minimize_brzozowski(nfa, 256).state_count == 14


@pytest.mark.parametrize("timings", [False, True])
def test_timing_cells_only_on_request(tmp_path, timings):
    patterns = tmp_path / "patterns.json"
    save_pattern_set(PatternSet(gen_dotstar(3, 1, 1, 4, 5), SOD, 5),
                     str(patterns))
    out = tmp_path / "r.csv"
    assert main(["report-per-pattern", str(patterns), "--seed", "0",
                 "--out", str(out)] + ["--timings"] * timings) == 0
    lines = out.read_text().splitlines()
    assert f"# timings: {'measured' if timings else 'omitted'}" in lines
    data = [line.split(",") for line in lines if line[0].isdigit()]
    assert len(data) == 3
    for cells in data:
        assert cells[-1] == "ok"
        if timings:
            assert all(float(c) >= 0 for c in cells[7:11])
        else:
            assert cells[7:11] == ["", "", "", ""]


def rows(mdfa, opt=None):
    opt = opt or [v + 1 for v in mdfa]
    return [ReportRow(key=k, nfa_states=o, opt_nfa_states=o, dfa_states=m,
                      mdfa_states=m, nfa_max_fanout=1, mdfa_max_fanout=1,
                      t_compile_s=0.0, t_optimize_s=0.0, t_determinize_s=0.0,
                      t_minimize_s=0.0)
            for k, (m, o) in enumerate(zip(mdfa, opt), 1)]


XS = [1, 2, 3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("mdfa, opt, label", [
    ([3 * x for x in XS], [3 * x for x in XS], GrowthLabel.EQUAL),
    ([3 * x for x in XS], None, GrowthLabel.LINEAR),
    ([x ** 3 for x in XS], None, GrowthLabel.POLYNOMIAL),
    ([2 ** x for x in XS], None, GrowthLabel.EXPONENTIAL),
])
def test_growth_labels(mdfa, opt, label):
    growth = classify_growth(rows(mdfa, opt), XS, "mdfa")
    assert growth.label is label
    assert growth.describe().startswith(label.value + " (loglog slope=")


def test_equal_keeps_the_fit_diagnostics():
    equal = classify_growth(rows([x ** 3 for x in XS], [x ** 3 for x in XS]),
                            XS, "mdfa")
    fit = classify_growth(rows([x ** 3 for x in XS]), XS, "mdfa")
    assert equal.label is GrowthLabel.EQUAL
    assert math.isclose(equal.loglog_slope, 3.0)
    assert replace(equal, label=GrowthLabel.POLYNOMIAL) == fit


@pytest.mark.parametrize("report, xs, series, message", [
    (rows([2, 4, 6], [2, 4, 6]), [1, 2, 3], "mdfa", "at least 4 points"),
    (rows([2, 4, 6, 8], [2, 4, 6, 8]), [1, 2, 2, 3], "mdfa",
     "strictly increasing"),
    (rows([0, 4, 6, 8]), [1, 2, 3, 4], "mdfa", "must be positive"),
    (rows([2, 4, 6])
     + [replace(rows([8])[0], key=4, dfa_states=None, mdfa_states=None,
                mdfa_max_fanout=None, status=CAP_TOKEN)],
     [1, 2, 3, 4], "mdfa", "rows without counts"),
    (rows([2, 4, 6, 8]), [1, 2, 3, 4], "states", "unknown series"),
])
def test_growth_rejects(report, xs, series, message):
    with pytest.raises(ValueError, match=message):
        classify_growth(report, xs, series)
