"""Pattern families and NFA generators.

Patterns are self-contained recipes: a regex, a concrete dot-star pair, a
mesh target (Hamming or Levenshtein ball), or a random-automaton recipe.
A recipe checks its fields when it is built: one that its generator could
not compile raises ValueError.  All randomness flows through
:class:`SplitMix64`, a fixed, named PRNG, so identical seeds give
identical patterns on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Automaton, StartKind, SymbolClass
from .regex import compile_regex, escape_literal, parse_regex

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator (Steele, Lea, Vigna).

    Used for every seeded choice in this package; bounded draws use the
    plain modulo reduction, which is deterministic and more than uniform
    enough for test-corpus generation.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def sample(self, population: int, k: int) -> list[int]:
        """k distinct values from range(population), Floyd's algorithm."""
        if k > population:
            raise ValueError("sample larger than population")
        chosen: set[int] = set()
        out: list[int] = []
        for j in range(population - k, population):
            t = self.below(j + 1)
            if t in chosen:
                t = j
            chosen.add(t)
            out.append(t)
        return out


# ---------------------------------------------------------------------------
# Pattern recipes


@dataclass(frozen=True)
class RegexSource:
    text: str

    def __post_init__(self):
        parse_regex(self.text)  # a RegexParseError names the position


@dataclass(frozen=True)
class DotStarSource:
    prefix: bytes
    suffix: bytes

    @property
    def text(self) -> str:
        return f"{escape_literal(self.prefix)}.*{escape_literal(self.suffix)}"


@dataclass(frozen=True)
class _MeshSource:
    """A nonempty target and an edit distance of at most its length."""

    pattern: bytes
    distance: int

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("pattern must be nonempty")
        if not 0 <= self.distance <= len(self.pattern):
            raise ValueError("distance must be in 0..len(pattern)")


@dataclass(frozen=True)
class HammingSource(_MeshSource):
    pass


@dataclass(frozen=True)
class LevenshteinSource(_MeshSource):
    pass


@dataclass(frozen=True)
class RandomRecipe:
    """Tabakov-Vardi style density model.

    ``density`` is the per-symbol ratio of transitions to states;
    ``accept_density`` the ratio of accepting states to states.
    """

    states: int
    density: float
    accept_density: float
    alphabet_size: int
    seed: int

    def __post_init__(self):
        n = self.states
        if n < 1:
            raise ValueError("states must be >= 1")
        if not 0 < self.density < math.inf:
            raise ValueError("density must be positive and finite")
        if not 0 <= self.accept_density <= 1:
            raise ValueError("accept_density must be in 0..1")
        if not 1 <= self.alphabet_size <= 256:
            raise ValueError("alphabet_size must be in 1..256")
        if self.per_symbol > n * n:
            raise ValueError(
                f"density {self.density} asks for {self.per_symbol} distinct "
                f"transitions per symbol but only {n * n} exist")

    @property
    def per_symbol(self) -> int:
        """Transitions per symbol: ``density * states``, rounded."""
        return int(self.density * self.states + 0.5)


PatternSource = (RegexSource | DotStarSource | HammingSource
                 | LevenshteinSource | RandomRecipe)


@dataclass(frozen=True)
class Pattern:
    id: int
    source: PatternSource


def pattern_size(p: Pattern) -> int:
    """Size axis used by growth plots: pattern length or state count."""
    s = p.source
    if isinstance(s, RegexSource):
        return len(s.text)
    if isinstance(s, DotStarSource):
        return len(s.prefix) + len(s.suffix)
    if isinstance(s, (HammingSource, LevenshteinSource)):
        return len(s.pattern)
    return s.states


def compile_pattern(p: Pattern,
                    start_kind: StartKind = StartKind.START_OF_DATA) -> Automaton:
    """Build the NFA for a pattern recipe.

    Random recipes fix their own start state (state 0, start-of-data) and
    ignore ``start_kind``.
    """
    s = p.source
    if isinstance(s, (RegexSource, DotStarSource)):
        return compile_regex(s.text, start_kind)
    if isinstance(s, HammingSource):
        return gen_hamming(s.pattern, s.distance, start_kind)
    if isinstance(s, LevenshteinSource):
        return gen_levenshtein(s.pattern, s.distance, start_kind)
    if isinstance(s, RandomRecipe):
        return gen_random_automaton(s)
    raise TypeError(f"unknown pattern source {s!r}")


def _alphabet_bytes(alphabet_size: int) -> bytes:
    """Readable alphabet: lowercase letters while they last, then raw bytes."""
    if not 1 <= alphabet_size <= 256:
        raise ValueError("alphabet_size must be in 1..256")
    if alphabet_size <= 26:
        return bytes(range(ord("a"), ord("a") + alphabet_size))
    return bytes(range(alphabet_size))


def gen_dotstar(k: int, prefix_len: int, suffix_len: int,
                alphabet_size: int, seed: int) -> list[Pattern]:
    """k dot-star patterns ``P.*S`` with seed-determined letters."""
    if prefix_len < 1 or suffix_len < 1:
        raise ValueError("prefix and suffix lengths must be >= 1")
    alphabet = _alphabet_bytes(alphabet_size)
    rng = SplitMix64(seed)
    out = []
    for i in range(k):
        prefix = bytes(alphabet[rng.below(alphabet_size)] for _ in range(prefix_len))
        suffix = bytes(alphabet[rng.below(alphabet_size)] for _ in range(suffix_len))
        out.append(Pattern(i, DotStarSource(prefix, suffix)))
    return out


def gen_mesh_patterns(kind: str, k: int, min_len: int, max_len: int,
                      distances: tuple[int, ...], alphabet_size: int,
                      seed: int) -> list[Pattern]:
    """k mesh patterns with seeded target strings and cycled distances."""
    if kind not in ("hamming", "levenshtein"):
        raise ValueError(f"unknown mesh kind {kind!r}")
    if not 1 <= min_len <= max_len:
        raise ValueError(f"bad length range {min_len}..{max_len}")
    if not distances:
        raise ValueError("the distance list is empty")
    alphabet = _alphabet_bytes(alphabet_size)
    rng = SplitMix64(seed)
    source_cls = HammingSource if kind == "hamming" else LevenshteinSource
    out = []
    for i in range(k):
        length = min_len + rng.below(max_len - min_len + 1)
        target = bytes(alphabet[rng.below(alphabet_size)] for _ in range(length))
        d = distances[i % len(distances)]
        if d > length:
            d = length
        out.append(Pattern(i, source_cls(target, d)))
    return out


def gen_hamming(pattern: bytes, d: int,
                start_kind: StartKind = StartKind.START_OF_DATA) -> Automaton:
    """Mesh NFA for strings of length len(pattern) within Hamming distance d.

    Grid state (i, e) = consumed i bytes with e mismatches; the corner
    with e > i is unreachable and never materialized.  Epsilon-free and
    acyclic; the construction is in fact deterministic.
    """
    HammingSource(pattern, d)  # refuses an empty pattern, a bad distance
    n = len(pattern)
    ids: dict[tuple[int, int], int] = {}
    for i in range(n + 1):
        for e in range(min(i, d) + 1):
            ids[(i, e)] = len(ids)
    edges = []
    for (i, e), src in ids.items():
        if i == n:
            continue
        match = SymbolClass.of([pattern[i]])
        edges.append((src, match, ids[(i + 1, e)]))
        if e < d:
            edges.append((src, match.complement(), ids[(i + 1, e + 1)]))
    return Automaton(
        state_count=len(ids),
        edges=tuple(edges),
        starts={ids[(0, 0)]: start_kind},
        accepts=frozenset(ids[(n, e)] for e in range(d + 1)),
    )


def gen_levenshtein(pattern: bytes, d: int,
                    start_kind: StartKind = StartKind.START_OF_DATA) -> Automaton:
    """Mesh NFA for strings within Levenshtein distance d of the pattern.

    Full (len+1) x (d+1) grid.  Per state (i, e): match consumes
    pattern[i]; substitution and insertion consume any byte; deletion is
    an epsilon edge.  All epsilon edges point "down" the grid (e + 1), so
    there are no epsilon cycles.
    """
    LevenshteinSource(pattern, d)  # refuses an empty pattern, a bad distance
    n = len(pattern)
    any_byte = SymbolClass.full()

    def sid(i: int, e: int) -> int:
        return e * (n + 1) + i

    edges = []
    eps = []
    for e in range(d + 1):
        for i in range(n + 1):
            src = sid(i, e)
            if i < n:
                edges.append((src, SymbolClass.of([pattern[i]]), sid(i + 1, e)))
            if e < d:
                edges.append((src, any_byte, sid(i, e + 1)))  # insertion
                if i < n:
                    eps.append((src, sid(i + 1, e + 1)))  # deletion
                    edges.append((src, any_byte, sid(i + 1, e + 1)))  # substitution
    return Automaton(
        state_count=(n + 1) * (d + 1),
        edges=tuple(edges),
        epsilon_edges=tuple(eps),
        starts={sid(0, 0): start_kind},
        accepts=frozenset(sid(n, e) for e in range(d + 1)),
    )


def gen_random_automaton(recipe: RandomRecipe) -> Automaton:
    """Density-model random NFA.

    Per alphabet symbol, exactly round(density * states) transitions are
    placed uniformly without duplicates; round(accept_density * states)
    accepting states are drawn uniformly.  State 0 is the start-of-data
    start.  Symbols are the byte values 0..alphabet_size-1, one edge per
    (symbol, src, dst) so transition counts match the density model.
    """
    n = recipe.states
    rng = SplitMix64(recipe.seed)
    edges = []
    for sym in range(recipe.alphabet_size):
        cls = SymbolClass.of([sym])
        for pair in sorted(rng.sample(n * n, recipe.per_symbol)):
            edges.append((pair // n, cls, pair % n))
    accept_count = int(recipe.accept_density * n + 0.5)
    accepts = frozenset(rng.sample(n, accept_count))
    return Automaton(
        state_count=n,
        edges=tuple(edges),
        starts={0: StartKind.START_OF_DATA},
        accepts=accepts,
    )
