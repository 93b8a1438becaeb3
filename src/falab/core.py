"""Automaton value type, invariants, canonical form, and structural comparison.

Automata are edge-labeled over the 256-value byte alphabet.  An edge label
is a :class:`SymbolClass`, a 256-bit set with one bit per byte value.
Values are immutable once constructed; every operation in this package is
a pure function returning new automata.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

ALPHABET_SIZE = 256
FULL_MASK = (1 << ALPHABET_SIZE) - 1


class StartKind(enum.Enum):
    """How a start state activates during scanning.

    START_OF_DATA activates once, before the first input byte.  ALL_INPUT
    re-activates at the start of every input cycle (unanchored matching).
    States absent from ``Automaton.starts`` are not start states at all.
    """

    START_OF_DATA = "start-of-data"
    ALL_INPUT = "all-input"


@dataclass(frozen=True, slots=True)
class SymbolClass:
    """A set of byte values, stored as a 256-bit mask (bit v = byte v)."""

    mask: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= FULL_MASK:
            raise ValueError("symbol class mask out of range")

    @classmethod
    def of(cls, items: Iterable[int] | bytes | str) -> "SymbolClass":
        if isinstance(items, str):
            items = items.encode("latin-1")
        mask = 0
        for b in items:
            if not 0 <= b < ALPHABET_SIZE:
                raise ValueError(f"byte value {b} out of range")
            mask |= 1 << b
        return cls(mask)

    @classmethod
    def byte_range(cls, lo: int, hi: int) -> "SymbolClass":
        """Inclusive range of byte values."""
        if not 0 <= lo <= hi < ALPHABET_SIZE:
            raise ValueError(f"bad byte range {lo}-{hi}")
        return cls(((1 << (hi - lo + 1)) - 1) << lo)

    @classmethod
    def full(cls) -> "SymbolClass":
        return cls(FULL_MASK)

    def __contains__(self, byte: int) -> bool:
        return bool((self.mask >> byte) & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "SymbolClass") -> "SymbolClass":
        return SymbolClass(self.mask | other.mask)

    def __and__(self, other: "SymbolClass") -> "SymbolClass":
        return SymbolClass(self.mask & other.mask)

    def complement(self) -> "SymbolClass":
        return SymbolClass(self.mask ^ FULL_MASK)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def values(self) -> Iterator[int]:
        """Member byte values in ascending order."""
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vals = list(self.values())
        if len(vals) > 8:
            return f"SymbolClass({len(vals)} bytes)"
        return f"SymbolClass.of({bytes(vals)!r})"


Edge = tuple[int, SymbolClass, int]


def _freeze_starts(starts: Mapping[int, StartKind]) -> dict[int, StartKind]:
    out = {}
    for state, kind in starts.items():
        if not isinstance(kind, StartKind):
            raise TypeError(f"start kind for state {state} is not a StartKind")
        out[int(state)] = kind
    return out


@dataclass(frozen=True, slots=True)
class Automaton:
    """A finite automaton over the byte alphabet.

    ``edges`` carry :class:`SymbolClass` labels; ``epsilon_edges`` consume
    no input.  ``component_labels`` optionally assigns states to the
    pattern/rule they came from.  Whether an automaton is a DFA is read
    from its structure by :func:`is_deterministic`; nothing stores it.

    Treat instances as immutable: the contained collections must not be
    mutated after construction.
    """

    state_count: int
    edges: tuple[Edge, ...] = ()
    epsilon_edges: tuple[tuple[int, int], ...] = ()
    starts: Mapping[int, StartKind] = field(default_factory=dict)
    accepts: frozenset[int] = frozenset()
    component_labels: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "epsilon_edges",
                           tuple((int(s), int(d)) for s, d in self.epsilon_edges))
        object.__setattr__(self, "starts", _freeze_starts(self.starts))
        object.__setattr__(self, "accepts", frozenset(int(s) for s in self.accepts))
        if self.component_labels is not None:
            labels = {int(s): int(l) for s, l in self.component_labels.items()}
            object.__setattr__(self, "component_labels", labels)

    def adjacency(self) -> list[list[tuple[SymbolClass, int]]]:
        """Outgoing symbol edges per state.  Built fresh on every call."""
        adj: list[list[tuple[SymbolClass, int]]] = [[] for _ in range(self.state_count)]
        for src, cls, dst in self.edges:
            adj[src].append((cls, dst))
        return adj

    def epsilon_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.state_count)]
        for src, dst in self.epsilon_edges:
            adj[src].append(dst)
        return adj

    def structurally_equal(self, other: "Automaton") -> bool:
        """Equality on the language-relevant structure.

        Ignores ``component_labels``; edge order matters
        (compare canonical forms for order independence).
        """
        return (self.state_count == other.state_count
                and self.edges == other.edges
                and self.epsilon_edges == other.epsilon_edges
                and self.starts == other.starts
                and self.accepts == other.accepts)


@dataclass(frozen=True, slots=True)
class StatsSummary:
    state_count: int
    transition_count: int
    max_fanout: int
    avg_fanout: float
    accept_count: int
    start_count: int


def validate(a: Automaton) -> list[str]:
    """Return every invariant violation as a human-readable string.

    An empty list means the automaton is well-formed: indices in range,
    nonempty edge classes, a start state, and component labels that no
    edge crosses.  Whether it is also a DFA is :func:`is_deterministic`'s
    question.  Never mutates.
    """
    problems: list[str] = []
    n = a.state_count
    if n < 0:
        problems.append("negative state count")

    def in_range(s: int) -> bool:
        return 0 <= s < n

    for i, (src, cls, dst) in enumerate(a.edges):
        if not in_range(src):
            problems.append(f"edge {i}: edge source out of range ({src})")
        if not in_range(dst):
            problems.append(f"edge {i}: edge target out of range ({dst})")
        if not isinstance(cls, SymbolClass) or not cls:
            problems.append(f"edge {i}: empty symbol class")
    for i, (src, dst) in enumerate(a.epsilon_edges):
        if not in_range(src):
            problems.append(f"epsilon edge {i}: edge source out of range ({src})")
        if not in_range(dst):
            problems.append(f"epsilon edge {i}: edge target out of range ({dst})")

    for state in a.starts:
        if not in_range(state):
            problems.append(f"start state {state} out of range")
    for state in a.accepts:
        if not in_range(state):
            problems.append(f"accept state {state} out of range")

    if not a.starts:
        problems.append("no start state")

    if a.component_labels is not None:
        for state in a.component_labels:
            if not in_range(state):
                problems.append(f"label for state {state} out of range")
        labels = a.component_labels
        for src, _, dst in a.edges:
            if (src in labels and dst in labels and labels[src] != labels[dst]):
                problems.append(
                    f"edge {src}->{dst} crosses component label boundary")
        for src, dst in a.epsilon_edges:
            if (src in labels and dst in labels and labels[src] != labels[dst]):
                problems.append(
                    f"epsilon edge {src}->{dst} crosses component label boundary")

    return problems


def stats(a: Automaton) -> StatsSummary:
    """Structural statistics.  Epsilon edges count toward fan-out."""
    fanout = [0] * a.state_count
    for src, _, _ in a.edges:
        fanout[src] += 1
    for src, _ in a.epsilon_edges:
        fanout[src] += 1
    transitions = len(a.edges) + len(a.epsilon_edges)
    return StatsSummary(
        state_count=a.state_count,
        transition_count=transitions,
        max_fanout=max(fanout, default=0),
        avg_fanout=transitions / a.state_count if a.state_count else 0.0,
        accept_count=len(a.accepts),
        start_count=len(a.starts),
    )


def relabel(a: Automaton, perm: list[int]) -> Automaton:
    """Renumber states by ``perm`` (old index -> new index).

    Output collections are sorted into canonical order: edges by
    (src, class mask, dst), epsilon edges before symbol edges implicitly
    via their own (src, dst) sort.
    """
    if sorted(perm) != list(range(a.state_count)):
        raise ValueError("perm is not a permutation of the state indices")
    edges = tuple(sorted(((perm[s], c, perm[d]) for s, c, d in a.edges),
                         key=lambda e: (e[0], e[1].mask, e[2])))
    eps = tuple(sorted((perm[s], perm[d]) for s, d in a.epsilon_edges))
    starts = {perm[s]: k for s, k in a.starts.items()}
    labels = None
    if a.component_labels is not None:
        labels = {perm[s]: l for s, l in a.component_labels.items()}
    return Automaton(
        state_count=a.state_count,
        edges=edges,
        epsilon_edges=eps,
        starts=starts,
        accepts=frozenset(perm[s] for s in a.accepts),
        component_labels=labels,
    )


def canonicalize(a: Automaton) -> Automaton:
    """Renumber states into deterministic breadth-first order from the starts.

    Visit order from each state: epsilon edges first (they sort as the
    empty class), then symbol edges in ascending order of the class mask,
    ties broken by ascending old destination index.  Unreachable states
    are appended after the reachable ones in old-index order.  Idempotent;
    language and structure are unchanged.  For deterministic automata the
    result is independent of the input numbering (out-classes are disjoint
    so the mask order is total); for NFAs the dst tie-break makes the
    result depend on the input numbering.
    """
    adj = a.adjacency()
    eps = a.epsilon_adjacency()
    order: list[int] = []
    seen = [False] * a.state_count
    queue: deque[int] = deque()
    for s in sorted(a.starts):
        if not seen[s]:
            seen[s] = True
            queue.append(s)
            order.append(s)
    while queue:
        u = queue.popleft()
        succ = [(0, d) for d in sorted(eps[u])]
        succ += sorted(((c.mask, d) for c, d in adj[u]))
        for _, d in succ:
            if not seen[d]:
                seen[d] = True
                queue.append(d)
                order.append(d)
    for s in range(a.state_count):
        if not seen[s]:
            order.append(s)
    perm = [0] * a.state_count
    for new, old in enumerate(order):
        perm[old] = new
    return relabel(a, perm)


def merge_parallel_edges(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """Union the classes of edges sharing (src, dst).

    The result is sorted by (src, class mask, dst).
    """
    merged: dict[tuple[int, int], int] = {}
    for src, cls, dst in edges:
        merged[src, dst] = merged.get((src, dst), 0) | cls.mask
    edges = sorted((src, mask, dst) for (src, dst), mask in merged.items())
    return tuple((src, SymbolClass(mask), dst) for src, mask, dst in edges)


def is_deterministic(a: Automaton) -> bool:
    """Whether ``a`` is a DFA: the one definition every DFA-only path uses.

    A (partial) DFA has no epsilon edges, exactly one start-of-data start,
    no all-input start, and no byte read by two edges out of one state.
    """
    if a.epsilon_edges:
        return False
    if sum(1 for k in a.starts.values() if k is StartKind.START_OF_DATA) != 1:
        return False
    if any(k is StartKind.ALL_INPUT for k in a.starts.values()):
        return False
    seen: dict[int, int] = {}
    for src, cls, dst in a.edges:
        if seen.get(src, 0) & cls.mask:
            return False
        seen[src] = seen.get(src, 0) | cls.mask
    return True


def isomorphic(a: Automaton, b: Automaton) -> bool:
    """Structural equality of two DFAs up to state renumbering.

    Both inputs are canonicalized internally; parallel edges between the
    same state pair are unioned first so differently-factored but equal
    labelings compare equal.  Rejects nondeterministic inputs.
    """
    for name, x in (("first", a), ("second", b)):
        if not is_deterministic(x):
            raise ValueError(f"isomorphic: {name} input is not deterministic")
    ca = canonicalize(replace(a, edges=merge_parallel_edges(a.edges)))
    cb = canonicalize(replace(b, edges=merge_parallel_edges(b.edges)))
    return ca.structurally_equal(cb)
