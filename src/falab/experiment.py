"""State-count experiment runners, growth classification, and report files.

Pipeline per item, fixed and recorded in every report manifest:
compile -> remove_epsilon -> trim -> optimize_nfa -> determinize ->
minimize (Brzozowski, cross-checked against Hopcroft).  All state counts
exclude unreachable states and the implicit dead state.  The determinize
stage is the subset walk alone: ``dfa_states`` counts its subsets.  Both
minimizers start from that walk's table, reversed once by the kernel's
``flip``: the Hopcroft cross-check refines the reversal, and Brzozowski
walks it, flips that walk and walks again, as ``minimize_brzozowski``
does.  No automaton is reversed.
The minimal DFA stays the table of the last walk: ``mdfa_states`` counts
its rows and ``mdfa_max_fanout`` their distinct targets.  So no DFA
``Automaton`` is built, except the minimal DFA of each row that the
equivalence spot check samples; that check, run through an independent
joint walk, is what ties the minimal DFA back to the NFA's language.

The CSV columns are :class:`ReportRow`'s fields.  Timings are measured
per stage but written only on request: wall-clock values would break the
byte-identical rerun guarantee, so the default leaves their cells empty.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import astuple, dataclass, fields, replace
from statistics import correlation, linear_regression

from . import transform
from ._version import __version__
from .core import Automaton, StartKind, stats
from .documents import write_text_atomic
from .generators import Pattern, SplitMix64, compile_pattern, pattern_size
from .regex import escape_literal
from .transform import (CapExceededError, DEFAULT_STATE_CAP, _brzozowski,
                        _flip, _subsets, _table_automaton, _witness,
                        equivalent, merge_patterns, optimize_nfa,
                        remove_epsilon, trim)

CAP_TOKEN = "CAP_EXCEEDED"
SPOT_CHECK_ROWS = 4

PIPELINE = ("compile", "remove_epsilon", "trim", "optimize_nfa",
            "determinize", "minimize_brzozowski(crosscheck=hopcroft)")

# falab's growth thresholds: a log-log slope above POLYNOMIAL_SLOPE is
# polynomial, a semi-log R^2 over the log-log one by R2_MARGIN exponential.
POLYNOMIAL_SLOPE = 1.2
R2_MARGIN = 0.05


@dataclass(frozen=True)
class ReportRow:
    """One pipeline run: a pattern id or a merge step k.

    Its fields are the report's columns, in order; a ``t_`` field is a
    timing, in seconds.  Counts hit by the determinization cap are None
    and the status records the failure; such rows stay in the report.
    """

    key: int
    nfa_states: int
    opt_nfa_states: int
    dfa_states: int | None
    mdfa_states: int | None
    nfa_max_fanout: int
    mdfa_max_fanout: int | None
    t_compile_s: float
    t_optimize_s: float
    t_determinize_s: float
    t_minimize_s: float
    status: str = "ok"


class GrowthLabel(enum.Enum):
    EQUAL = "equal"
    LINEAR = "linear"
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class GrowthClass:
    """Classification plus the fit diagnostics it was based on."""

    label: GrowthLabel
    loglog_slope: float
    loglog_r2: float
    semilog_slope: float
    semilog_r2: float

    def describe(self) -> str:
        return (f"{self.label.value} "
                f"(loglog slope={self.loglog_slope:.3f} r2={self.loglog_r2:.3f}, "
                f"semilog slope={self.semilog_slope:.3f} r2={self.semilog_r2:.3f})")


def fit_loglinear(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and R^2 of ys against xs."""
    slope, _ = linear_regression(xs, ys)
    if len(set(ys)) == 1:
        return slope, 1.0  # constant series: a flat line fits exactly
    return slope, correlation(xs, ys) ** 2


def classify_points(xs: list[float], ys: list[float]) -> GrowthClass:
    """Fit-based growth class of a positive series over increasing x.

    Exponential wins when the semi-log fit beats the log-log fit by
    R2_MARGIN in R^2 with positive slope; otherwise the log-log slope
    picks polynomial (above POLYNOMIAL_SLOPE) or linear.  Sub-linear
    slopes fall into the linear bucket: the classes describe growth *at
    most* that fast, and the point of the classification is separating
    blowup from benign growth.
    """
    if len(xs) < 4:
        raise ValueError("growth classification needs at least 4 points")
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("x values must be strictly increasing")
    if any(y <= 0 for y in ys):
        raise ValueError("series values must be positive")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    ll_slope, ll_r2 = fit_loglinear(log_x, log_y)
    sl_slope, sl_r2 = fit_loglinear(list(map(float, xs)), log_y)
    if sl_slope > 0 and sl_r2 - ll_r2 >= R2_MARGIN:
        label = GrowthLabel.EXPONENTIAL
    elif ll_slope > POLYNOMIAL_SLOPE:
        label = GrowthLabel.POLYNOMIAL
    else:
        label = GrowthLabel.LINEAR
    return GrowthClass(label, ll_slope, ll_r2, sl_slope, sl_r2)


def classify_growth(rows: list[ReportRow], xs: list[int],
                    series: str = "mdfa") -> GrowthClass:
    """Growth class of one report column against the given x axis.

    The fit decides, except that the mdfa series is relabeled EQUAL when
    every row has mdfa_states == opt_nfa_states.  Rows whose counts are
    missing (cap exceeded) cannot be classified.
    """
    if len(rows) != len(xs):
        raise ValueError("rows and x values differ in length")
    if series not in ("mdfa", "opt_nfa", "nfa", "dfa"):
        raise ValueError(f"unknown series {series!r}")
    values = [getattr(r, f"{series}_states") for r in rows]
    if any(v is None for v in values):
        raise ValueError(f"series {series!r} has rows without counts "
                         f"(status != ok)")
    fit = classify_points(list(map(float, xs)), list(map(float, values)))
    if series == "mdfa" and all(r.mdfa_states == r.opt_nfa_states for r in rows):
        return replace(fit, label=GrowthLabel.EQUAL)
    return fit


def report_growth(rows: list[ReportRow],
                  xs: list[int]) -> dict[str, GrowthClass]:
    """The growth lines of a report: its mdfa and opt_nfa series against
    ``xs``, or none when the report has fewer than 4 rows, x values that
    do not increase, or a row without counts."""
    if (len(rows) < 4 or any(x2 <= x1 for x1, x2 in zip(xs, xs[1:]))
            or any(r.status != "ok" for r in rows)):
        return {}
    return {series: classify_growth(rows, xs, series)
            for series in ("mdfa", "opt_nfa")}


# ---------------------------------------------------------------------------
# Experiment runners


@dataclass
class _StageResult:
    nfa: Automaton
    opt: Automaton
    mdfa: tuple | None  # the minimal DFA's (atoms, labels, table)
    row: ReportRow


def _max_fanout(natoms: int, table) -> int:
    """The most distinct targets (-1, no move, aside) in one row of a
    dense table: ``stats(_table_automaton(...)).max_fanout``, as that
    automaton has one edge per target.  0 when there are no atoms."""
    rows = map(set, zip(*[iter(table)] * natoms))
    return max((len(row) - (-1 in row) for row in rows), default=0)


def _run_pipeline(key: int, nfa_raw: Automaton,
                  cap: int) -> _StageResult:
    t0 = time.perf_counter()
    nfa = trim(remove_epsilon(nfa_raw))
    t1 = time.perf_counter()
    opt = optimize_nfa(nfa)
    t2 = time.perf_counter()
    dfa_states = mdfa = mdfa_states = mdfa_max_fanout = None
    status = "ok"
    try:
        atoms, labels, table = _subsets(nfa, cap)
        dfa_states = len(labels)
        t3 = time.perf_counter()
        # One reversal of the walk serves both minimizers.  Brzozowski
        # walks it, as minimize_brzozowski does.
        flipped = _flip(atoms, labels, table)
        mdfa = (atoms, *_brzozowski(atoms, flipped, cap))
        # Hopcroft's cross-check refines it (``_refine`` is read off its
        # module at each call) and counts the live blocks.
        hop_states = transform._live_blocks(transform._refine(flipped))
        t4 = time.perf_counter()
        mdfa_states = len(mdfa[1])
        mdfa_max_fanout = _max_fanout(len(atoms), mdfa[2])
        if hop_states != mdfa_states:
            raise AssertionError(
                f"minimizer disagreement on key {key}: brzozowski "
                f"{mdfa_states} vs hopcroft {hop_states}")
    except CapExceededError:
        status = CAP_TOKEN
        t3 = time.perf_counter() if dfa_states is None else t3
        t4 = t3
    nfa_stats = stats(nfa)
    row = ReportRow(
        key=key,
        nfa_states=nfa.state_count,
        opt_nfa_states=opt.state_count,
        dfa_states=dfa_states,
        mdfa_states=mdfa_states,
        nfa_max_fanout=nfa_stats.max_fanout,
        mdfa_max_fanout=mdfa_max_fanout,
        t_compile_s=t1 - t0,
        t_optimize_s=t2 - t1,
        t_determinize_s=(t3 - t2) if dfa_states is not None else 0.0,
        t_minimize_s=(t4 - t3) if mdfa is not None else 0.0,
        status=status,
    )
    return _StageResult(nfa, opt, mdfa, row)


def _spot_check(results: list[_StageResult], seed: int, cap: int) -> None:
    """Verify language preservation on a seeded sample of rows, naming a
    shortest word on which a row's optimized NFA or minimal DFA differs
    from its NFA."""
    ok_rows = [r for r in results if r.row.status == "ok"]
    if not ok_rows:
        return
    rng = SplitMix64(seed ^ 0x5EED5EED)
    picks = rng.sample(len(ok_rows), min(SPOT_CHECK_ROWS, len(ok_rows)))
    # The joint walk adds merge_patterns' shared start, so a row whose DFA
    # fit the cap can need one subset more when its language is unchanged.
    cap += 1
    for i in picks:
        r = ok_rows[i]
        for stage, out in (("optimized NFA", r.opt),
                           ("minimal DFA", _table_automaton(*r.mdfa))):
            # equivalent, a public name, is what bench/tracing.py counts;
            # the witness walks again, on failure only
            if not equivalent(r.nfa, out, cap):
                word = escape_literal(_witness(r.nfa, out, cap))
                raise AssertionError(
                    f"pipeline changed the language on key {r.row.key}: "
                    f"the {stage} and the NFA differ on '{word}'")


def per_pattern_experiment(patterns: list[Pattern], seed: int,
                           start_kind: StartKind = StartKind.START_OF_DATA,
                           cap: int = DEFAULT_STATE_CAP) -> list[ReportRow]:
    """One pipeline run per pattern; rows ordered by pattern id."""
    results = []
    for p in sorted(patterns, key=lambda p: p.id):
        results.append(_run_pipeline(p.id, compile_pattern(p, start_kind), cap))
    _spot_check(results, seed, cap)
    return [r.row for r in results]


def incremental_merge_experiment(patterns: list[Pattern], seed: int,
                                 start_kind: StartKind = StartKind.START_OF_DATA,
                                 cap: int = DEFAULT_STATE_CAP) -> list[ReportRow]:
    """Merge the first k patterns for k = 1..n and run the pipeline on each.

    Cap-exceeded rows are expected at larger k for explosive families and
    are recorded, not dropped.
    """
    if len(patterns) < 2:
        raise ValueError("incremental merge needs at least 2 patterns")
    ordered = sorted(patterns, key=lambda p: p.id)
    compiled = [compile_pattern(p, start_kind) for p in ordered]
    results = []
    for k in range(1, len(compiled) + 1):
        merged = merge_patterns(compiled[:k], [p.id for p in ordered[:k]])
        results.append(_run_pipeline(k, merged, cap))
    _spot_check(results, seed, cap)
    return [r.row for r in results]


# ---------------------------------------------------------------------------
# Report emission


def _cell(column: str, value, include_timings: bool) -> str:
    if column.startswith("t_"):  # a timing
        return f"{value:.6f}" if include_timings else ""
    return CAP_TOKEN if value is None else str(value)


def render_report(rows: list[ReportRow],
                  growth: dict[str, GrowthClass] | None = None,
                  seed: int | None = None,
                  cap: int = DEFAULT_STATE_CAP,
                  include_timings: bool = False) -> str:
    """CSV text with a manifest header.

    Timing cells are left empty unless ``include_timings`` is set, so the
    default output is byte-identical across reruns of the same seed.
    """
    lines = [
        "# falab-report v1",
        f"# tool_version: {__version__}",
        f"# seed: {'none' if seed is None else seed}",
        f"# pipeline: {' -> '.join(PIPELINE)}",
        "# counting: reachable states only; implicit dead state excluded",
        f"# cap: {cap}",
        f"# timings: {'measured' if include_timings else 'omitted'}",
    ]
    for name, g in sorted((growth or {}).items()):
        lines.append(f"# growth[{name}]: {g.describe()}")
    columns = [f.name for f in fields(ReportRow)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(column, value, include_timings)
                              for column, value in zip(columns, astuple(row))))
    return "\n".join(lines) + "\n"


def render_plot_data(rows: list[ReportRow], xs: list[int]) -> str:
    """Tab-separated x / opt / mdfa columns, ready for log-log plotting.

    Values are raw (not pre-logged); rows without counts keep empty cells.
    """
    lines = ["x\topt_nfa_states\tmdfa_states"]
    for x, r in zip(xs, rows):
        mdfa = "" if r.mdfa_states is None else str(r.mdfa_states)
        lines.append(f"{x}\t{r.opt_nfa_states}\t{mdfa}")
    return "\n".join(lines) + "\n"


def emit_report(rows: list[ReportRow], xs: list[int], destination: str,
                growth: dict[str, GrowthClass] | None = None,
                seed: int | None = None,
                cap: int = DEFAULT_STATE_CAP,
                include_timings: bool = False) -> list[str]:
    """Write the CSV and its companion plot-data file; returns the paths."""
    write_text_atomic(destination, render_report(rows, growth, seed, cap,
                                                 include_timings))
    plot_path = destination + ".plot.tsv"
    write_text_atomic(plot_path, render_plot_data(rows, xs))
    return [destination, plot_path]


def experiment_x_axis(patterns: list[Pattern]) -> list[int]:
    """Pattern-size x values, ordered by pattern id."""
    return [pattern_size(p) for p in sorted(patterns, key=lambda p: p.id)]
