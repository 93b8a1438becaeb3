"""Command-line surface: every subcommand is a thin shell over one
library call plus document I/O.

Exit codes: 0 success, 1 domain error (bad automaton, cap exceeded,
schema violation, I/O failure), 2 usage error.  Diagnostics go to stderr;
data goes to files or stdout only.  ``equivalent`` follows cmp(1)
conventions: exit 0 when the languages match, 1 when they differ, and
then it prints a shortest word that exactly one of the two accepts, as
pattern text (``regex.escape_literal``), on a ``witness:`` line.

Randomized commands require an explicit --seed; there is never an
implicit random seed.

``stats`` and ``active-rules`` print their result dataclass as JSON, one
key per field (``active-rules`` adds the rule count first).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from ._version import __version__
from .core import StartKind, stats, validate
from .documents import (DocumentError, PatternSet, _dump,
                        automaton_to_document, load_automaton,
                        load_pattern_set, render_trace, save_automaton,
                        save_pattern_set, write_text_atomic)
from .experiment import (emit_report, experiment_x_axis,
                         incremental_merge_experiment, per_pattern_experiment,
                         report_growth)
from .generators import (Pattern, RandomRecipe, compile_pattern, gen_dotstar,
                         gen_mesh_patterns)
from .regex import compile_regex, escape_literal
from .simulate import active_rule_frequency, run
from .transform import (CapExceededError, DEFAULT_STATE_CAP,
                        _witness, connected_components, determinize,
                        merge_patterns, minimize_brzozowski,
                        minimize_hopcroft, optimize_nfa)

_START_CHOICES = [k.value for k in StartKind]


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {number})")
    return number


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out`` atomically, or to stdout."""
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _write_automaton(a, out: str | None) -> None:
    _emit(_dump(automaton_to_document(a)), out)


def _load_valid(path: str):
    a = load_automaton(path)
    problems = validate(a)
    if problems:
        raise ValueError(f"{path}: invalid automaton: " + "; ".join(problems))
    return a


def _read_input_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_compile(args) -> int:
    if args.regex is not None:
        if args.start_kind is None:
            raise UsageError("--start-kind is required with --regex")
        if args.id is not None:
            raise UsageError("--id needs --patterns, not --regex")
        automaton = compile_regex(args.regex, StartKind(args.start_kind))
    else:
        ps = load_pattern_set(args.patterns)
        by_id = {p.id: p for p in ps.patterns}
        if args.id is None:
            if len(by_id) != 1:
                raise UsageError("--id is required when the set has "
                                 "several patterns")
            pattern = next(iter(by_id.values()))
        elif args.id in by_id:
            pattern = by_id[args.id]
        else:
            raise ValueError(f"no pattern with id {args.id}")
        kind = (StartKind(args.start_kind) if args.start_kind
                else ps.start_kind)
        automaton = compile_pattern(pattern, kind)
    _write_automaton(automaton, args.out)
    return 0


def _cmd_generate(args) -> int:
    kind = StartKind(args.start_kind)
    patterns: list[Pattern]
    if args.family == "dotstar":
        patterns = gen_dotstar(args.count, args.prefix_len, args.suffix_len,
                               args.alphabet_size, args.seed)
    elif args.family in ("hamming", "levenshtein"):
        patterns = gen_mesh_patterns(args.family, args.count,
                                     args.min_length, args.max_length,
                                     tuple(args.distance), args.alphabet_size,
                                     args.seed)
    else:  # random
        rng_seed = args.seed
        patterns = [
            Pattern(i, RandomRecipe(args.states, args.density,
                                    args.accept_density, args.alphabet_size,
                                    rng_seed + i))
            for i in range(args.count)
        ]
    save_pattern_set(PatternSet(tuple(patterns), kind, args.seed), args.out)
    return 0


def _cmd_optimize(args) -> int:
    _write_automaton(optimize_nfa(_load_valid(args.automaton)), args.out)
    return 0


def _cmd_determinize(args) -> int:
    _write_automaton(determinize(_load_valid(args.automaton), args.cap),
                     args.out)
    return 0


def _cmd_minimize(args) -> int:
    minimize = (minimize_brzozowski if args.minimizer == "brzozowski"
                else minimize_hopcroft)
    _write_automaton(minimize(_load_valid(args.automaton), args.cap), args.out)
    return 0


def _cmd_components(args) -> int:
    parts = connected_components(_load_valid(args.automaton))
    paths = []
    for i, component in enumerate(parts):
        path = f"{args.out_prefix}.{i:03d}.json"
        save_automaton(component, path)
        paths.append(path)
    print(len(parts))
    for path in paths:
        print(path)
    return 0


def _cmd_merge(args) -> int:
    automata = [_load_valid(p) for p in args.automata]
    _write_automaton(merge_patterns(automata), args.out)
    return 0


def _cmd_equivalent(args) -> int:
    a, b = _load_valid(args.first), _load_valid(args.second)
    word = _witness(a, b, args.cap)
    if word is None:
        print("equivalent")
        return 0
    print("not equivalent")
    print(f"witness: {escape_literal(word)}")
    return 1


def _cmd_stats(args) -> int:
    print(json.dumps(asdict(stats(_load_valid(args.automaton))), indent=2))
    return 0


def _cmd_simulate(args) -> int:
    trace = run(_load_valid(args.automaton), _read_input_bytes(args.input))
    _emit(render_trace(trace), args.out)
    return 0


def _cmd_active_rules(args) -> int:
    components = connected_components(_load_valid(args.automaton))
    result = active_rule_frequency(components, _read_input_bytes(args.input))
    _emit(json.dumps({"rules": len(components), **asdict(result)},
                     indent=2) + "\n", args.out)
    return 0


def _cmd_report(args) -> int:
    ps = load_pattern_set(args.patterns)
    if args.merge:
        rows = incremental_merge_experiment(list(ps.patterns), args.seed,
                                            ps.start_kind, args.cap)
        xs = [row.key for row in rows]
    else:
        rows = per_pattern_experiment(list(ps.patterns), args.seed,
                                      ps.start_kind, args.cap)
        xs = experiment_x_axis(list(ps.patterns))
    emit_report(rows, xs, args.out, report_growth(rows, xs), args.seed,
                args.cap, args.timings)
    return 0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falab",
        description="Finite-automata workbench: compile, transform, "
                    "measure, and simulate byte-alphabet automata.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cap_flag(p, help="determinization state cap"):
        p.add_argument("--cap", type=_positive_int, default=DEFAULT_STATE_CAP,
                       help=help)

    p = sub.add_parser("compile", help="compile a pattern to an NFA document")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--regex", help="pattern text")
    group.add_argument("--patterns", help="pattern-set document")
    p.add_argument("--id", type=int, help="pattern id within the set")
    p.add_argument("--start-kind", choices=_START_CHOICES)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("generate", help="generate a pattern-set document")
    fam = p.add_subparsers(dest="family", required=True)
    for name in ("dotstar", "hamming", "levenshtein", "random"):
        f = fam.add_parser(name)
        f.add_argument("--count", type=_positive_int, required=True)
        f.add_argument("--seed", type=int, required=True)
        f.add_argument("--alphabet-size", type=int, default=8)
        f.add_argument("--start-kind", choices=_START_CHOICES,
                       default=StartKind.START_OF_DATA.value)
        f.add_argument("--out", required=True)
        if name == "dotstar":
            f.add_argument("--prefix-len", type=int, default=2)
            f.add_argument("--suffix-len", type=int, default=2)
        elif name in ("hamming", "levenshtein"):
            f.add_argument("--min-length", type=int, required=True)
            f.add_argument("--max-length", type=int, required=True)
            f.add_argument("--distance", type=int, action="append",
                           required=True,
                           help="repeat to cycle several distances")
        else:
            f.add_argument("--states", type=int, required=True)
            f.add_argument("--density", type=float, required=True)
            f.add_argument("--accept-density", type=float, required=True)
        f.set_defaults(func=_cmd_generate)

    p = sub.add_parser("optimize", help="merge equal-behavior NFA states")
    p.add_argument("automaton")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("determinize", help="subset construction")
    p.add_argument("automaton")
    cap_flag(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_determinize)

    p = sub.add_parser("minimize", help="minimal DFA")
    p.add_argument("automaton")
    p.add_argument("--minimizer", choices=["brzozowski", "hopcroft"],
                   default="brzozowski")
    cap_flag(p, "state cap of the minimizer's subset walks (either "
                "minimizer takes any automaton and walks its subsets "
                "first, as the reports do)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("components", help="split weakly-connected components")
    p.add_argument("automaton")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("merge", help="union patterns behind a shared start")
    p.add_argument("automata", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("equivalent", help="exact language equivalence")
    p.add_argument("first")
    p.add_argument("second")
    cap_flag(p)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("stats", help="structural statistics as JSON")
    p.add_argument("automaton")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="scan a byte stream, emit the trace")
    p.add_argument("automaton")
    p.add_argument("--input", required=True, help="input bytes file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("active-rules",
                       help="per-cycle active-rule statistics")
    p.add_argument("automaton")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_active_rules)

    for name, merge in (("report-per-pattern", False), ("report-merge", True)):
        p = sub.add_parser(name, help="state-count experiment CSV")
        p.add_argument("patterns")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        cap_flag(p)
        p.add_argument("--timings", action="store_true",
                       help="write wall-clock cells (breaks byte-identical "
                            "reruns)")
        p.set_defaults(func=_cmd_report, merge=merge)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"falab: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CapExceededError, DocumentError, OSError) as exc:
        print(f"falab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
