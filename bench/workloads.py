"""The benchmark's workloads: seeded inputs, one timed operation, checks.

Each workload makes its inputs from the seed, sets up (the part timed as
``setup_s``), and runs one operation (timed as ``op_s``) as one or more
parts, each a call of ``run`` timed on its own.  A run cycles through a
small pool of seeded inputs, so its median reflects several inputs and
not one draw.  Every output is checked: the first output for each input
against independent oracles, outside the timed region, and every later
one against the digest that check accepted.

The measured calls go through falab's public entry points, looked up at
call time (``falab.cli.main``, ``falab.simulate.Simulator`` ...), so the
traced run sees them.  The oracles are bound at import and never traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import falab
import falab.cli
import falab.documents
from falab.core import StartKind
from falab.documents import PatternSet, load_pattern_set
from falab.generators import (Pattern, SplitMix64, compile_pattern,
                              gen_dotstar, gen_mesh_patterns)
from falab.transform import (ORACLE_STATE_LIMIT, CapExceededError, accepts,
                             brute_force_minimal_states, determinize,
                             merge_patterns, remove_epsilon, trim)

ALPHABET_SIZE = 8
ALPHABET = bytes(range(ord("a"), ord("a") + ALPHABET_SIZE))
DISTANCE = 3
# The report's --seed only picks the rows its equivalence spot check
# samples.  Fixing it makes the sampled k values the same on every seed, so
# a run's cost depends on its pattern sets and not on which rows were drawn.
SPOT_CHECK_SEED = 0
# Cycles per scanned stream checked against transform.accepts on the prefix.
# They are drawn from the first ORACLE_PREFIX bytes: accepts() costs about a
# millisecond per byte of prefix on these automata.
ORACLE_CYCLES = 4
ORACLE_PREFIX = 256


@dataclass(frozen=True)
class Sizes:
    dotstar_k: int = 7
    dotstar_sets: int = 8
    mesh_lengths: tuple[int, int] = (4, 10)
    mesh_per_length: int = 6
    scan_patterns: int = 50
    scan_lengths: tuple[int, int] = (8, 14)
    stream_bytes: int = 2048
    streams: int = 3


FULL = Sizes()
TINY = Sizes(dotstar_k=4, dotstar_sets=2, mesh_lengths=(4, 5),
             mesh_per_length=2, scan_patterns=5, scan_lengths=(4, 6),
             stream_bytes=128, streams=2)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(count)]


# ---------------------------------------------------------------------------
# Report workloads: one in-process `falab report-*` call per operation


def _dotstar_set(seed: int, k: int) -> tuple[Pattern, ...]:
    """k all-input dot-star patterns with distinct prefixes and suffixes.

    A repeated prefix or suffix shares NFA states and shrinks the DFA, so
    filtering repeats keeps the DFA size, and the run time, steady across
    seeds.
    """
    chosen: list[Pattern] = []
    prefixes: set[bytes] = set()
    suffixes: set[bytes] = set()
    for p in gen_dotstar(16 * k, 2, 2, ALPHABET_SIZE, seed):
        if p.source.prefix in prefixes or p.source.suffix in suffixes:
            continue
        prefixes.add(p.source.prefix)
        suffixes.add(p.source.suffix)
        chosen.append(Pattern(len(chosen), p.source))
        if len(chosen) == k:
            return tuple(chosen)
    raise ValueError(f"seed {seed}: fewer than {k} distinct dot-star patterns")


def _mesh_set(seed: int, sizes: Sizes) -> tuple[Pattern, ...]:
    """Levenshtein patterns, the same number of each length.

    Drawing lengths at random would let one seed get many long patterns,
    whose DFAs are much larger; a fixed count per length keeps the total
    work steady across seeds while the letters stay seeded.
    """
    lo, hi = sizes.mesh_lengths
    patterns: list[Pattern] = []
    for length, sub in zip(range(lo, hi + 1), _sub_seeds(seed, hi - lo + 1)):
        for p in gen_mesh_patterns("levenshtein", sizes.mesh_per_length,
                                   length, length, (DISTANCE,), ALPHABET_SIZE,
                                   sub):
            patterns.append(Pattern(len(patterns), p.source))
    return tuple(patterns)


def _exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return falab.cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            return exc.code


class ReportWorkload:
    parts = ("report",)

    def __init__(self, name: str, command: str, sizes: Sizes):
        self.name = name
        self.command = command
        self.merge = command == "report-merge"
        self.sizes = sizes

    def make_inputs(self, seed: int) -> list[int]:
        """Indices of the pattern sets that setup() writes."""
        count = self.sizes.dotstar_sets if self.merge else 1
        return list(range(count))

    def _pattern_sets(self, seed: int) -> list[PatternSet]:
        if self.merge:
            return [PatternSet(_dotstar_set(sub, self.sizes.dotstar_k),
                               StartKind.ALL_INPUT, sub)
                    for sub in _sub_seeds(seed, self.sizes.dotstar_sets)]
        return [PatternSet(_mesh_set(seed, self.sizes),
                           StartKind.START_OF_DATA, seed)]

    def setup(self, seed: int, workdir: Path) -> list[Path]:
        """Generate and save the pattern-set documents."""
        paths = []
        for j, ps in enumerate(self._pattern_sets(seed)):
            path = workdir / f"{self.name}-{j}.json"
            falab.documents.save_pattern_set(ps, str(path))
            paths.append(path)
        return paths

    def run(self, state: list[Path], item: int, part: str) -> Path:
        path = state[item]
        out = path.with_suffix(".csv")
        code = falab.cli.main([self.command, str(path), "--seed",
                               str(SPOT_CHECK_SEED), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"falab {self.command} exited with {code}")
        return out

    def headline(self, part_s: dict[str, float],
                 inputs) -> list[tuple[str, float, str]]:
        return [("report_s", part_s["report"], "s")]

    def digest(self, outs: dict) -> str:
        # The version line changes with every release and says nothing
        # about the report's content.
        lines = outs["report"].read_bytes().splitlines(keepends=True)
        return _sha256(b"".join(line for line in lines
                                if not line.startswith(b"# tool_version:")))

    def check(self, state: list[Path], item: int, outs: dict) -> list[str]:
        """Rows against a fresh compile and the pair-marking oracle."""
        out = outs["report"]
        problems = []
        ps = load_pattern_set(str(state[item]))
        patterns = sorted(ps.patterns, key=lambda p: p.id)
        compiled = [compile_pattern(p, ps.start_kind) for p in patterns]
        if self.merge:
            ids = [p.id for p in patterns]
            items = [(k, merge_patterns(compiled[:k], ids[:k]))
                     for k in range(1, len(compiled) + 1)]
        else:
            items = [(p.id, nfa) for p, nfa in zip(patterns, compiled)]
        text = out.read_text(encoding="utf-8")
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")][1:]
        if len(rows) != len(items):
            return [f"{out.name}: {len(rows)} rows, expected {len(items)}"]
        for (key, raw), row in zip(items, rows):
            where = f"{out.name} row {key}"
            if row[0] != str(key) or row[-1] != "ok":
                problems.append(f"{where}: key/status {row[0]}/{row[-1]}")
                continue
            nfa = trim(remove_epsilon(raw))
            if int(row[1]) != nfa.state_count:
                problems.append(f"{where}: nfa_states {row[1]} != "
                                f"{nfa.state_count}")
            try:
                dfa = determinize(nfa, ORACLE_STATE_LIMIT)
            except CapExceededError:
                if int(row[3]) <= ORACLE_STATE_LIMIT:
                    problems.append(f"{where}: dfa_states {row[3]} but the "
                                    f"subset construction passes "
                                    f"{ORACLE_STATE_LIMIT}")
                continue
            if int(row[3]) != dfa.state_count:
                problems.append(f"{where}: dfa_states {row[3]} != "
                                f"{dfa.state_count}")
            minimal = brute_force_minimal_states(dfa)
            if int(row[4]) != minimal:
                problems.append(f"{where}: mdfa_states {row[4]} != "
                                f"pair-marking oracle {minimal}")
        if item == 0:
            missing = str(state[item].with_name("missing.json"))
            code = _exit_code([self.command, missing, "--seed", "0",
                               "--out", str(out.with_name("missing.csv"))])
            if code != 1:
                problems.append(f"missing input exited {code}, expected 1")
            code = _exit_code([self.command])
            if code != 2:
                problems.append(f"usage error exited {code}, expected 2")
        return problems


# ---------------------------------------------------------------------------
# Scan workload: a merged Levenshtein rule set over seeded byte streams


@dataclass
class ScanState:
    merged: falab.Automaton
    components: list
    simulator: falab.Simulator


class ScanWorkload:
    """One scan and one active-rule pass over the same stream per operation."""

    name = "levenshtein-scan"
    parts = ("scan", "active_rules")

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def make_inputs(self, seed: int) -> list[bytes]:
        """Seeded streams over the patterns' alphabet."""
        streams = []
        for sub in _sub_seeds(seed ^ 0x5CA11, self.sizes.streams):
            rng = SplitMix64(sub)
            streams.append(bytes(ALPHABET[rng.below(ALPHABET_SIZE)]
                                 for _ in range(self.sizes.stream_bytes)))
        return streams

    def setup(self, seed: int, workdir: Path) -> ScanState:
        """Compile, merge, split into rules and build the Simulator."""
        lo, hi = self.sizes.scan_lengths
        patterns = gen_mesh_patterns("levenshtein", self.sizes.scan_patterns,
                                     lo, hi, (DISTANCE,), ALPHABET_SIZE, seed)
        nfas = [falab.generators.compile_pattern(p, StartKind.ALL_INPUT)
                for p in patterns]
        merged = falab.transform.merge_patterns(nfas, [p.id for p in patterns])
        # Exactly what connected_components returns, including the shared
        # start state left as a rule of its own.
        components = falab.transform.connected_components(merged)
        return ScanState(merged, components, falab.simulate.Simulator(merged))

    def run(self, state: ScanState, data: bytes, part: str):
        if part == "scan":
            return state.simulator.run(data)
        return falab.simulate.active_rule_frequency(state.components, data)

    def headline(self, part_s: dict[str, float],
                 inputs) -> list[tuple[str, float, str]]:
        kib = len(inputs[0]) / 1024
        return [("scan_kBps", kib / part_s["scan"], "KiB/s"),
                ("active_rules_kBps", kib / part_s["active_rules"], "KiB/s")]

    def digest(self, outs: dict) -> str:
        trace, stats = outs["scan"], outs["active_rules"]
        reports = _sha256(repr(trace.reports).encode())
        activation = _sha256(repr(sorted(
            trace.per_state_activation_count.items())).encode())
        rules = _sha256(repr((stats.per_cycle_rule_count, stats.min_active,
                              stats.max_active,
                              stats.start_only_fraction)).encode())
        return f"reports:{reports} activation:{activation} rules:{rules}"

    def check(self, state: ScanState, data: bytes, outs: dict) -> list[str]:
        """The scan against accepts(), the rule counts against the scan.

        Reports at sampled cycles must match accepts() on the prefix.  Rules
        are weakly connected, so scanning them one by one or merged
        activates the same states: each cycle's rule count must equal the
        number of rule labels active in the merged scan.
        """
        trace, stats = outs["scan"], outs["active_rules"]
        if trace.cycles != len(data):
            return [f"trace has {trace.cycles} cycles for {len(data)} bytes"]
        reported = {t for t, _, _ in trace.reports}
        rng = SplitMix64(int.from_bytes(hashlib.sha256(data).digest()[:8],
                                        "little"))
        window = min(len(data), ORACLE_PREFIX)
        problems = []
        for t in sorted(rng.sample(window, min(ORACLE_CYCLES, window))):
            if accepts(state.merged, data[:t + 1]) != (t in reported):
                problems.append(f"cycle {t}: trace reports "
                                f"{t in reported}, accepts() disagrees")
        labels = state.merged.component_labels
        expected = tuple(len({labels[s] for s in active if s in labels})
                         for active in trace.per_cycle_active)
        if stats.per_cycle_rule_count != expected:
            problems.append("per-cycle active-rule counts differ from the "
                            "rule labels active in the merged scan")
        return problems


def workloads(sizes: Sizes = FULL) -> dict:
    return {w.name: w for w in (
        ReportWorkload("dotstar-merge", "report-merge", sizes),
        ReportWorkload("mesh-per-pattern", "report-per-pattern", sizes),
        ScanWorkload(sizes),
    )}
