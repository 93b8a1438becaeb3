"""Corpus builders shared by the unit and acceptance tests.

The seeded builders are deterministic via SplitMix64; the same seed
always yields the same corpus on every platform.  ``nfas`` is the
hypothesis strategy for small NFAs, and ``alternating_chain`` builds a
DFA of any length with no two equivalent states.
"""

from hypothesis import strategies as st

from falab.core import Automaton, StartKind, SymbolClass
from falab.generators import SplitMix64, gen_hamming, gen_levenshtein

SOD = StartKind.START_OF_DATA
ALL = StartKind.ALL_INPUT

LETTERS = "abcdefgh"


def random_regex(rng: SplitMix64, depth: int, alphabet_size: int) -> str:
    """Random pattern over the first ``alphabet_size`` letters."""
    roll = rng.below(100)
    if depth == 0 or roll < 35:
        leaf = rng.below(100)
        if leaf < 60:
            return LETTERS[rng.below(alphabet_size)]
        if leaf < 80:
            a, b = rng.below(alphabet_size), rng.below(alphabet_size)
            lo, hi = min(a, b), max(a, b)
            return f"[{LETTERS[lo]}]" if lo == hi else f"[{LETTERS[lo]}-{LETTERS[hi]}]"
        if leaf < 90:
            members = sorted({LETTERS[rng.below(alphabet_size)] for _ in range(2)})
            return "[" + "".join(members) + "]"
        return "."
    if roll < 60:
        n = 2 + rng.below(2)
        return "".join(random_regex(rng, depth - 1, alphabet_size) for _ in range(n))
    if roll < 80:
        n = 2 + rng.below(2)
        return ("(" + "|".join(random_regex(rng, depth - 1, alphabet_size)
                               for _ in range(n)) + ")")
    inner = f"({random_regex(rng, depth - 1, alphabet_size)})"
    quant = rng.below(5)
    if quant == 0:
        return inner + "*"
    if quant == 1:
        return inner + "+"
    if quant == 2:
        return inner + "?"
    if quant == 3:
        return inner + f"{{{1 + rng.below(3)}}}"
    lo = rng.below(3)
    return inner + f"{{{lo},{lo + rng.below(3)}}}"


def nested_groups(depth: int) -> str:
    """``a`` inside ``depth`` nested groups."""
    return "(" * depth + "a" + ")" * depth


def regex_corpus(count: int, seed: int, depth: int = 4,
                 max_alphabet: int = 8) -> list[str]:
    rng = SplitMix64(seed)
    return [random_regex(rng, depth, 1 + rng.below(max_alphabet))
            for _ in range(count)]


def mesh_corpus(seed: int, lengths=range(2, 9), max_d: int = 2,
                alphabet: int = 4) -> list[tuple[str, object]]:
    """Every mesh generator at every (length, d <= max_d) combination."""
    rng = SplitMix64(seed)
    items = []
    for length in lengths:
        for d in range(0, min(max_d, length) + 1):
            pattern = bytes(ord("a") + rng.below(alphabet)
                            for _ in range(length))
            items.append((f"hamming({pattern!r},{d})", gen_hamming(pattern, d)))
            items.append((f"levenshtein({pattern!r},{d})",
                          gen_levenshtein(pattern, d)))
    return items


BYTES = b"ab\x00\xff"


START_MODES = ("start-of-data", "all-input", "mixed", "start-less")


def start_maps(n: int, mode: str | None):
    """Start markings over ``n`` states; ``None`` draws any mix, or none."""
    state = st.integers(0, n - 1)
    if mode is None:
        return st.dictionaries(state, st.sampled_from([SOD, ALL]))
    if mode == "start-less":
        return st.just({})
    if mode == "mixed":
        return st.lists(state, min_size=2, max_size=4, unique=True).map(
            lambda ss: {s: (SOD, ALL)[i % 2] for i, s in enumerate(ss)})
    kind = SOD if mode == "start-of-data" else ALL
    return st.dictionaries(state, st.just(kind), min_size=1)


@st.composite
def nfas(draw, mode: str | None = None):
    """Small NFAs with epsilon edges; starts as :func:`start_maps` draws.

    Classes are subsets of ``BYTES`` (0x00 and 0xFF included), their
    complements, or the full byte range.
    """
    n = draw(st.integers(2 if mode == "mixed" else 1, 7))
    state = st.integers(0, n - 1)
    subset = st.sets(st.sampled_from(BYTES), min_size=1).map(SymbolClass.of)
    cls = st.one_of(subset, subset.map(SymbolClass.complement),
                    st.just(SymbolClass.full()))
    edges = draw(st.lists(st.tuples(state, cls, state), max_size=12))
    eps = draw(st.lists(st.tuples(state, state), max_size=4))
    starts = draw(start_maps(n, mode))
    finals = draw(st.frozensets(state))
    return Automaton(state_count=n, edges=tuple(edges),
                     epsilon_edges=tuple(eps), starts=starts, accepts=finals)


def alternating_chain(n: int) -> Automaton:
    """``n + 1`` states in a line, reading ``a`` and ``b`` by turns; the
    last state accepts, so no two states are equivalent."""
    a, b = SymbolClass.of(b"a"), SymbolClass.of(b"b")
    return Automaton(state_count=n + 1,
                     edges=tuple((i, (a, b)[i % 2], i + 1) for i in range(n)),
                     starts={0: SOD}, accepts=frozenset([n]))
