"""Language-preserving automaton transformations and verification oracles.

Determinization, both minimization algorithms, the signature-merge NFA
optimization, component splitting, pattern merging, and two checkers:
exact language equivalence, which walks the subset construction of both
automata side by side once (``cap`` bounds that joint walk, its shared
start included), and a quadratic pair-marking minimality oracle that
shares no code with the minimizers.

One builder (``_program``) turns an automaton into the flat program of
byte-class successors that ``_simkernel_py`` specifies:
:class:`~falab.simulate.Simulator` scans it, and the subset walk
(``_subsets``) determinizes it into a dense DFA table, the NFA's byte
classes and one target id per state and class, plus the number of report
labels each DFA state accepts.  An ALL_INPUT start has one encoding in
that program, for the scan as for the walk: the closed ``always`` set,
which joins every step.  The walk is the only way into a DFA
table: ``determinize`` builds its ``Automaton`` from it, and ``equivalent``
reads a shortest separating word off its joint walk's table
(:func:`_witness`).  One reversal, the kernel's ``flip``
(:func:`_flip`), turns a walked table into the program of its reversal,
completed with a dead state, and serves both minimizers, which share
one contract: each takes any automaton and a cap on its walks, and
returns the minimal DFA.  Both start from the subset walk of the
automaton, flipped; no automaton is ever reversed.  Brzozowski
(``_brzozowski``) walks the flip, which gives the minimal DFA of the
reversed language, flips that walk and walks again, so its state cap
trips where the report pipeline's does.  The one Hopcroft refinement
(``_refine``) refines the flip: ``_quotient`` merges its blocks into
the minimal DFA's table, and ``_live_blocks`` counts them (the report
pipeline's cross-check refines the flip that its Brzozowski walks).  The
scan, the walk, the flip and the refinement all run in the kernel this
module loads: the compiled ``_simkernel`` when the extension was built
(``python setup.py build_ext --inplace``) for the same program
``FORMAT``, and otherwise ``_simkernel_py``, whose plain-Python loops
are the specification both follow; a compiled module of another format
is ignored with a ``RuntimeWarning``.

Deterministic automata here are partial: a missing transition means
rejection, and the implicit dead state is never materialized or counted.
"""

from __future__ import annotations

import warnings
from array import array
from itertools import accumulate, chain, compress

from . import _simkernel_py
from .core import (FULL_MASK, Automaton, StartKind, SymbolClass,
                   is_deterministic, merge_parallel_edges)

try:
    from . import _simkernel
except ImportError:  # built without a C compiler: all in Python
    _simkernel = None
if (_simkernel is not None
        and getattr(_simkernel, "FORMAT", None) != _simkernel_py.FORMAT):
    warnings.warn(f"ignoring {_simkernel.__file__}: it was built for another "
                  f"program format; rebuild it with python setup.py "
                  f"build_ext --inplace --force", RuntimeWarning)
    _simkernel = None

# The kernel every scan, subset walk and refinement calls, looked up
# through this name on each call.
_kernel = _simkernel or _simkernel_py

DEFAULT_STATE_CAP = 1 << 20
ORACLE_STATE_LIMIT = 512


class CapExceededError(RuntimeError):
    """Determinization materialized more states than the configured cap."""

    def __init__(self, cap: int):
        super().__init__(
            f"determinization exceeded the state cap ({cap}); raise the cap "
            f"to proceed")
        self.cap = cap


# ---------------------------------------------------------------------------
# Shared helpers


def epsilon_closures(a: Automaton) -> list[frozenset[int]]:
    """Per-state epsilon closure (always includes the state itself)."""
    if not a.epsilon_edges:
        return [frozenset((s,)) for s in range(a.state_count)]
    adj = a.epsilon_adjacency()
    closures: list[frozenset[int]] = [frozenset()] * a.state_count
    for s in range(a.state_count):
        seen = {s}
        stack = [s]
        while stack:
            for d in adj[stack.pop()]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        closures[s] = frozenset(seen)
    return closures


def close_over(closures: list[frozenset[int]], states) -> frozenset[int]:
    out: set[int] = set()
    for s in states:
        out |= closures[s]
    return frozenset(out)


def partition_masks(masks: list[int]) -> list[int]:
    """Coarsest partition of the byte alphabet refining every given mask.

    Returns disjoint nonempty masks ("atoms") covering the union of the
    inputs; every input mask is an exact union of atoms.
    """
    parts: list[int] = []
    covered = 0
    for mask in set(masks):
        new_parts = []
        for p in parts:
            inside = p & mask
            outside = p & ~mask
            if inside and outside:
                new_parts.append(inside)
                new_parts.append(outside)
            else:
                new_parts.append(p)
        fresh = mask & ~covered
        if fresh:
            new_parts.append(fresh)
        parts = new_parts
        covered |= mask
    return parts


def trim(a: Automaton) -> Automaton:
    """Drop states unreachable from any start; renumber preserving order."""
    adj = a.adjacency()
    eps = a.epsilon_adjacency()
    seen = [False] * a.state_count
    stack = [s for s in a.starts]
    for s in stack:
        seen[s] = True
    while stack:
        u = stack.pop()
        for _, d in adj[u]:
            if not seen[d]:
                seen[d] = True
                stack.append(d)
        for d in eps[u]:
            if not seen[d]:
                seen[d] = True
                stack.append(d)
    if all(seen):
        return a
    keep = [s for s in range(a.state_count) if seen[s]]
    newid = {old: new for new, old in enumerate(keep)}
    labels = None
    if a.component_labels is not None:
        labels = {newid[s]: l for s, l in a.component_labels.items() if seen[s]}
    return Automaton(
        state_count=len(keep),
        edges=tuple((newid[s], c, newid[d]) for s, c, d in a.edges
                    if seen[s] and seen[d]),
        epsilon_edges=tuple((newid[s], newid[d]) for s, d in a.epsilon_edges
                            if seen[s] and seen[d]),
        starts={newid[s]: k for s, k in a.starts.items()},
        accepts=frozenset(newid[s] for s in a.accepts if seen[s]),
        component_labels=labels,
    )


# ---------------------------------------------------------------------------
# Epsilon removal


def remove_epsilon(a: Automaton) -> Automaton:
    """Equivalent epsilon-free automaton on the same state set.

    Every state inherits the outgoing symbol edges and the acceptance of
    its epsilon closure; start markings are untouched.  Parallel edges to
    the same target are unioned.  No states are added or removed.
    """
    if not a.epsilon_edges:
        return a
    closures = epsilon_closures(a)
    adj = a.adjacency()
    edges: list[tuple[int, SymbolClass, int]] = []
    accepts = set(a.accepts)
    for s in range(a.state_count):
        merged: dict[int, int] = {}
        for member in closures[s]:
            for cls, dst in adj[member]:
                merged[dst] = merged.get(dst, 0) | cls.mask
        for dst in sorted(merged):
            edges.append((s, SymbolClass(merged[dst]), dst))
        if closures[s] & a.accepts:
            accepts.add(s)
    return Automaton(
        state_count=a.state_count,
        edges=tuple(edges),
        starts=a.starts,
        accepts=frozenset(accepts),
        component_labels=a.component_labels,
    )


# ---------------------------------------------------------------------------
# Determinization (subset construction)


def _program(a: Automaton) -> tuple[list[int], list, tuple]:
    """The flat kernel program of ``a``: ``(atoms, labels, program)``.

    ``atoms`` are the byte classes, the atoms of :func:`partition_masks`
    over every edge class in ascending order; ``labels`` are the report
    labels (the ``component_labels`` of the accepting states, sorted,
    unlabeled last); ``program`` is ``(n, ncls, off, succ, init, always,
    report)`` as ``_simkernel_py`` specifies it, over those classes.  Each
    edge visits only the atoms inside its class.  ALL_INPUT starts are
    the closed ``always`` set, and with one the full alphabet is
    partitioned too: the bytes that no edge reads are then a class of
    their own, on which every subset steps to ``always`` alone.
    """
    unanchored = [s for s, k in a.starts.items() if k is StartKind.ALL_INPUT]
    masks = [cls.mask for _, cls, _ in a.edges]
    if unanchored:
        masks.append(FULL_MASK)
    atoms = sorted(partition_masks(masks))
    n, ncls = a.state_count, len(atoms)
    closures = epsilon_closures(a)
    inside: dict[int, list[int]] = {}  # class mask -> its atoms' indices
    # The successors of state s on class c are rows[s * ncls + c].
    rows = [frozenset()] * (n * ncls)
    for src, cls, dst in a.edges:
        where = inside.get(cls.mask)
        if where is None:
            where = inside[cls.mask] = [i for i, atom in enumerate(atoms)
                                        if atom & cls.mask]
        closure = closures[dst]
        for i in where:
            k = src * ncls + i
            rows[k] = rows[k] | closure if rows[k] else closure
    always = close_over(closures, unanchored)
    init = close_over(closures, a.starts) | always
    tags = a.component_labels or {}
    labels = sorted({tags.get(s) for s in a.accepts},
                    key=lambda x: (x is None, x))
    index = {label: k for k, label in enumerate(labels)}
    report = array("i", [-1]) * n
    for s in a.accepts:
        report[s] = index[tags.get(s)]
    return atoms, labels, (
        n, ncls, array("i", accumulate(map(len, rows), initial=0)),
        array("i", chain.from_iterable(rows)),
        array("i", sorted(init)), array("i", sorted(always)), report)


def _subsets(a: Automaton, cap: int) -> tuple[list[int], array, array]:
    """The subset walk behind :func:`determinize`, :func:`equivalent`,
    both minimizers and the report pipeline, run to the end.

    Returns ``(atoms, labels, table)``: the byte classes of
    :func:`_program`, in ascending order, then two ``array('i')`` indexed
    by DFA state.  ``labels[s]`` counts the distinct report labels (the
    ``component_labels`` of the accepting states, unlabeled as one) among
    the NFA states of subset ``s``, so ``s`` accepts where it is above 0.
    ``table`` holds ``len(labels) * len(atoms)`` state ids:
    ``table[s * len(atoms) + i]`` is the state that ``s`` reaches on atom
    ``i``, or -1 for no move (the empty subset).  The kernel's
    ``subsets`` walks :func:`_program` of the NFA, adding its ``always``
    set, the ALL_INPUT starts' closure, to every step.
    """
    atoms, _, program = _program(a)
    return (atoms, *_walk(program, cap))


def _walk(program: tuple, cap: int) -> tuple[array, array]:
    """Run the kernel's ``subsets(program, cap)``, raising
    :class:`CapExceededError` where it returns None: past the cap."""
    walked = _kernel.subsets(program, cap)
    if walked is None:
        raise CapExceededError(cap)
    return walked


def determinize(a: Automaton, cap: int = DEFAULT_STATE_CAP) -> Automaton:
    """Subset construction.  Only reachable subset states materialize.

    Subsets of NFA states are stepped over the NFA's byte classes (those
    of :func:`_program`, computed once): each state maps each class it
    reads to its epsilon-closed successors, and the closure of the
    ALL_INPUT starts joins every step.  The walk (:func:`_subsets`) fills
    a dense table of one target id per subset and class, and a state
    accepts where its subset holds an accepting NFA state; the empty
    subset (dead state) is never created: missing transitions mean
    rejection.  Each output state gets one edge per target, the union of
    the classes leading there, and edges come out sorted by (src, class
    mask, dst).  States are numbered breadth-first from the closure of
    every start, new targets in ascending mask order, which is
    :func:`~falab.core.canonicalize`'s order; compare DFAs from elsewhere
    with ``canonicalize`` or ``isomorphic``.  Raises
    :class:`CapExceededError` when more than ``cap`` states materialize,
    and ValueError when ``cap`` is below 1.
    """
    return _table_automaton(*_subsets(a, cap))


def _table_automaton(atoms: list[int], labels, table: array) -> Automaton:
    """The partial DFA of a dense table over the ascending ``atoms``, laid
    out as :func:`_subsets` returns it: state 0 starts, and a state
    accepts where its ``labels`` item is above 0.

    Each state gets one edge per target, the union of the atoms leading
    there; edges are sorted by (src, class mask, dst), and edges with
    one mask share one :class:`SymbolClass`.
    """
    natoms = len(atoms)
    down = atoms[::-1]
    classes: dict[int, SymbolClass] = {}
    edges: list[tuple[int, SymbolClass, int]] = []
    for src, row in enumerate(zip(*[iter(table)] * natoms)):
        by_target: dict[int, int] = {}
        for atom, dst in zip(down, reversed(row)):
            if dst in by_target:
                by_target[dst] |= atom
            else:
                by_target[dst] = atom
        by_target.pop(-1, None)
        # first seen downwards is the highest mask: read the targets back
        for dst, mask in reversed(by_target.items()):
            cls = classes.get(mask)
            if cls is None:
                cls = classes[mask] = SymbolClass(mask)
            edges.append((src, cls, dst))
    return Automaton(
        state_count=len(labels),
        edges=tuple(edges),
        starts={0: StartKind.START_OF_DATA},
        accepts=frozenset(compress(range(len(labels)), labels)),
    )


def _flip(atoms: list[int], labels, table: array) -> tuple:
    """The kernel's ``flip`` of a walked table, laid out as
    :func:`_subsets` returns it: the program of the table, completed with
    its dead state (the last), with every move reversed.  Walking it
    gives the minimal DFA of the reversed language (Brzozowski), and
    :func:`_refine` refines it (Hopcroft)."""
    return _kernel.flip(len(atoms), labels, table)


def _brzozowski(atoms: list[int], flipped: tuple,
                cap: int) -> tuple[array, array]:
    """The minimal DFA, ``(labels, table)``, of an accessible DFA table
    given as its :func:`_flip`: walking the flip gives the minimal DFA of
    the reversed language, and walking that one's flip the minimal DFA.
    The second walk finds no more states than the table has, so on a
    table that fits ``cap`` only the first can pass it."""
    return _walk(_flip(atoms, *_walk(flipped, cap)), cap)


def minimize_brzozowski(a: Automaton, cap: int = DEFAULT_STATE_CAP) -> Automaton:
    """Determinize, reverse, determinize, reverse, determinize: the
    minimal DFA, from the subset walk of ``a`` (:func:`_subsets`) and
    :func:`_brzozowski` of its flip, as the report pipeline computes it.

    The DFAs between stay tables, reversed by the kernel's ``flip``.
    Output is the unique minimal DFA modulo the (never materialized) dead
    state; its state count excludes that dead state by construction.
    Raises :class:`CapExceededError` when the walk of ``a``, or the walk
    that builds the reversed language's minimal DFA, passes ``cap``:
    exactly where the report marks the row whose NFA is ``a`` as over
    the cap.
    """
    atoms, labels, table = _subsets(a, cap)
    return _table_automaton(atoms, *_brzozowski(
        atoms, _flip(atoms, labels, table), cap))


# ---------------------------------------------------------------------------
# Hopcroft minimization (partition refinement)


def _refine(program: tuple) -> list[int]:
    """Hopcroft's partition refinement of a walked table, given as its
    :func:`_flip` program, in the kernel's ``refine``: a list of the
    block of each state, the dead state last, with blocks numbered in
    order of their smallest member; states in the dead state's block
    cannot reach acceptance."""
    return _kernel.refine(program).tolist()


def _live_blocks(block_of: list[int]) -> int:
    """The state count of the minimal DFA whose :func:`_refine` blocks
    these are.  Blocks are numbered in order of their smallest member, so
    the start's is 0, and the dead state is last; its block is no state,
    so the live blocks are as many as the highest block number.  In the
    empty language that block holds the start too, and is the lone one."""
    return max(max(block_of), 1)


def _quotient(atoms: list[int], labels, table: array,
              block_of: list[int]) -> tuple[list, array]:
    """The minimal DFA of a walked table, given the :func:`_refine` blocks
    of its :func:`_flip`: ``(labels, table)``, laid out as :func:`_subsets`
    returns them, with one state per live block (:func:`_live_blocks`),
    numbered by its smallest walked member.  The empty language gives a
    lone state with no moves."""
    natoms, dead = len(atoms), block_of[-1]
    # Live block b is state b - (b > dead): state k is block k + (k >=
    # dead), or block 0, the dead one, in the empty language.  A reversed
    # pass leaves each block its smallest member.
    first = dict(zip(reversed(block_of), range(len(block_of) - 1, -1, -1)))
    reps = [first[k + (0 < dead <= k)] for k in range(_live_blocks(block_of))]
    # -1 targets read block_of[-1], the dead state's block, too
    state = [-1 if b == dead else b - (b > dead) for b in block_of]
    rows = (table[rep * natoms:(rep + 1) * natoms] for rep in reps)
    return ([labels[rep] for rep in reps],
            array("i", [state[t] for row in rows for t in row]))


def minimize_hopcroft(a: Automaton, cap: int = DEFAULT_STATE_CAP) -> Automaton:
    """Partition-refinement minimization of any automaton, on
    :func:`minimize_brzozowski`'s contract: the minimal DFA, or
    :class:`CapExceededError` when the walk passes ``cap``.

    The subset walk (:func:`_subsets`) determinizes ``a``; of a DFA it is
    the DFA trimmed to its reachable states and renumbered breadth-first,
    as :func:`determinize` numbers its output, over the atoms of its edge
    classes (bytes no edge reads lead only to the dead state and split
    nothing).  :func:`_refine` refines that table, flipped, and
    :func:`_quotient` merges its blocks, so the output does not depend on
    the input's numbering, and is isomorphic to
    :func:`minimize_brzozowski`'s.
    """
    atoms, labels, table = _subsets(a, cap)
    return _table_automaton(atoms, *_quotient(
        atoms, labels, table, _refine(_flip(atoms, labels, table))))


# ---------------------------------------------------------------------------
# Heuristic NFA optimization


def optimize_nfa(a: Automaton) -> Automaton:
    """Merge states with identical outgoing behavior, to a fixpoint.

    Epsilon edges are removed first.  Two states merge when they agree on
    acceptance, start kind, component label, and their outgoing
    transitions as per-byte target sets (classes are normalized per
    target, so differently factored but equal labelings compare equal).
    Merging survivors can expose new identical groups, hence the fixpoint
    iteration.  The state count never increases and the language is
    preserved.
    """
    a = remove_epsilon(a)
    while True:
        adj = a.adjacency()
        labels = a.component_labels or {}
        signatures: dict[tuple, list[int]] = {}
        for s in range(a.state_count):
            merged: dict[int, int] = {}
            for cls, dst in adj[s]:
                merged[dst] = merged.get(dst, 0) | cls.mask
            sig = (s in a.accepts, a.starts.get(s), labels.get(s),
                   frozenset(merged.items()))
            signatures.setdefault(sig, []).append(s)
        groups = [members for members in signatures.values() if len(members) > 1]
        if not groups:
            return a
        target = list(range(a.state_count))
        for members in groups:
            survivor = min(members)
            for s in members:
                target[s] = survivor
        keep = sorted(set(target))
        newid = {old: new for new, old in enumerate(keep)}
        remap = [newid[target[s]] for s in range(a.state_count)]
        new_labels = None
        if a.component_labels is not None:
            new_labels = {remap[s]: l for s, l in a.component_labels.items()}
        a = Automaton(
            state_count=len(keep),
            edges=merge_parallel_edges((remap[s], c, remap[d])
                                       for s, c, d in a.edges),
            starts={remap[s]: k for s, k in a.starts.items()},
            accepts=frozenset(remap[s] for s in a.accepts),
            component_labels=new_labels,
        )


# ---------------------------------------------------------------------------
# Components and merging


def connected_components(a: Automaton) -> list[Automaton]:
    """Split into rules, one automaton each.

    With ``component_labels`` a rule is the set of states with one label.
    The unlabeled shared start that :func:`merge_patterns` adds (a
    START_OF_DATA state with only outgoing epsilon edges) is dropped, and
    its epsilon targets get back their START_OF_DATA marking; any other
    unlabeled state, or an edge between two labels, is a ValueError.
    Without labels a rule is a weakly-connected component, labeled with
    its position.  Rules are ordered by their smallest original state
    index and keep their states in the original relative order.  A rule
    with accepts but no start is still returned; validate() flags it.
    """
    parent = list(range(a.state_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    labels = a.component_labels
    starts = dict(a.starts)
    if labels:
        touched = {x for s, _, d in a.edges for x in (s, d)}
        touched.update(d for _, d in a.epsilon_edges)
        strays = [s for s in range(a.state_count) if s not in labels
                  and (starts.get(s) is not StartKind.START_OF_DATA
                       or s in touched or s in a.accepts)]
        if strays:
            raise ValueError(f"states {strays} carry no component label")
        crossing = [(s, d) for s, _, d in a.edges if labels[s] != labels[d]]
        crossing += [(s, d) for s, d in a.epsilon_edges
                     if s in labels and labels[s] != labels[d]]
        if crossing:
            raise ValueError(f"edges {crossing} cross component labels")
        for s, d in a.epsilon_edges:
            if s not in labels:
                starts.setdefault(d, StartKind.START_OF_DATA)
        rule_of = labels.get
    else:
        for s, _, d in a.edges:
            union(s, d)
        for s, d in a.epsilon_edges:
            union(s, d)
        rule_of = find

    # Ascending states: each rule first appears at its smallest state.
    members: dict[int, list[int]] = {}
    local = [0] * a.state_count  # each state's index within its rule
    for s in range(a.state_count):
        if rule_of(s) is not None:
            states = members.setdefault(rule_of(s), [])
            local[s] = len(states)
            states.append(s)
    # One pass over each collection splits it by rule, keeping its order;
    # only the shared start's epsilon edges and marking are in no rule.
    parts = {r: ([], [], {}, []) for r in members}
    for s, c, d in a.edges:
        parts[rule_of(s)][0].append((local[s], c, local[d]))
    for s, d in a.epsilon_edges:
        if rule_of(s) is not None:
            parts[rule_of(s)][1].append((local[s], local[d]))
    for s, k in starts.items():
        if rule_of(s) is not None:
            parts[rule_of(s)][2][local[s]] = k
    for s in a.accepts:
        parts[rule_of(s)][3].append(local[s])
    return [Automaton(state_count=len(states), edges=tuple(edges),
                      epsilon_edges=tuple(eps), starts=kinds,
                      accepts=frozenset(accepting),
                      component_labels=dict.fromkeys(
                          range(len(states)),
                          labels[states[0]] if labels else index))
            for index, (states, (edges, eps, kinds, accepting))
            in enumerate(zip(members.values(), parts.values()))]


def merge_patterns(patterns: list[Automaton],
                   ids: list[int] | None = None) -> Automaton:
    """Disjoint union behind a fresh shared start.

    The shared START_OF_DATA state (the last state index) is epsilon
    linked to each pattern's start-of-data starts, which lose their own
    marking; ALL_INPUT starts keep theirs and are not rerouted.  States
    carry their originating pattern id in ``component_labels`` (the
    shared start stays unlabeled), which is what attributes accepting
    states to patterns.
    """
    if not patterns:
        raise ValueError("merge_patterns needs at least one automaton")
    if ids is None:
        ids = list(range(len(patterns)))
    if len(ids) != len(patterns):
        raise ValueError("ids and patterns lengths differ")
    offsets = []
    total = 0
    for p in patterns:
        offsets.append(total)
        total += p.state_count
    shared = total
    edges = []
    eps = []
    starts: dict[int, StartKind] = {shared: StartKind.START_OF_DATA}
    accepts: set[int] = set()
    labels: dict[int, int] = {}
    for p, off, pid in zip(patterns, offsets, ids):
        edges.extend((s + off, c, d + off) for s, c, d in p.edges)
        eps.extend((s + off, d + off) for s, d in p.epsilon_edges)
        for s, kind in p.starts.items():
            if kind is StartKind.ALL_INPUT:
                starts[s + off] = kind
            else:
                eps.append((shared, s + off))
        accepts.update(s + off for s in p.accepts)
        labels.update({s + off: pid for s in range(p.state_count)})
    return Automaton(
        state_count=total + 1,
        edges=tuple(edges),
        epsilon_edges=tuple(eps),
        starts=starts,
        accepts=frozenset(accepts),
        component_labels=labels,
    )


# ---------------------------------------------------------------------------
# Language membership and equivalence


def accepts(a: Automaton, data: bytes) -> bool:
    """Subset-simulation membership test (no trace machinery)."""
    closures = epsilon_closures(a)
    adj = a.adjacency()
    always = close_over(closures, (s for s, k in a.starts.items()
                                   if k is StartKind.ALL_INPUT))
    active = close_over(closures, a.starts) | always
    for byte in data:
        step = {d for s in active for c, d in adj[s] if byte in c}
        active = close_over(closures, step) | always
    return bool(active & a.accepts)


def equivalent(a: Automaton, b: Automaton,
               cap: int = DEFAULT_STATE_CAP) -> bool:
    """Exact language equivalence, no length bound.

    Walks the subsets of ``merge_patterns([a, b])`` once: each pairs what
    one word reaches in ``a`` and in ``b``, and the union labels every
    state with its side (the inputs' own ``component_labels`` are not
    read), so the languages match when no subset accepts the label of
    exactly one side.  ``cap`` bounds that joint walk, shared start
    included: it may raise where each side alone fits.
    """
    return _witness(a, b, cap) is None


def _witness(a: Automaton, b: Automaton, cap: int) -> bytes | None:
    """A shortest word that exactly one of ``a`` and ``b`` accepts, or
    None when they are :func:`equivalent`.

    The walk numbers the subsets breadth-first, so the first one that
    accepts exactly one side is at the least depth, and the first move
    into each subset, in table order, comes from one a level nearer the
    start: following those moves back spells a shortest word, one byte,
    the lowest of its atom, per move.
    """
    atoms, labels, table = _subsets(merge_patterns([a, b]), cap)
    try:
        target = labels.index(1)
    except ValueError:
        return None
    natoms = len(atoms)
    into: dict[int, int] = {}  # subset -> the first table slot leading in
    for k, t in enumerate(table[:target * natoms]):
        into.setdefault(t, k)
    word = bytearray()
    while target:
        source, i = divmod(into[target], natoms)
        word.append((atoms[i] & -atoms[i]).bit_length() - 1)
        target = source
    return bytes(reversed(word))


# ---------------------------------------------------------------------------
# Minimality oracle (pair marking / table filling)


def brute_force_minimal_states(a: Automaton) -> int:
    """Count equivalence classes of live states by pair marking.

    Independent of both minimizers: completes the (trimmed) DFA with an
    explicit dead state, marks distinguishable pairs until fixpoint, then
    counts classes of reachable states that are not equivalent to the
    dead state.  The start state's class is always counted, so the empty
    language yields 1, matching the minimizers' degenerate output.
    Rejects nondeterministic inputs and DFAs above 512 states.
    """
    if not is_deterministic(a):
        raise ValueError("oracle requires a deterministic automaton")
    a = trim(a)
    n = a.state_count
    if n > ORACLE_STATE_LIMIT:
        raise ValueError(
            f"oracle limited to {ORACLE_STATE_LIMIT} states (got {n})")
    atoms = partition_masks([c.mask for _, c, _ in a.edges])
    dead = n
    total = n + 1
    delta = [[dead] * len(atoms) for _ in range(total)]
    for src, cls, dst in a.edges:
        for i, m in enumerate(atoms):
            if m & cls.mask:
                delta[src][i] = dst

    marked = [[False] * total for _ in range(total)]
    for p in range(total):
        for q in range(p):
            p_acc = p in a.accepts
            q_acc = q in a.accepts
            if p_acc != q_acc:
                marked[p][q] = True
    changed = True
    while changed:
        changed = False
        for p in range(total):
            for q in range(p):
                if marked[p][q]:
                    continue
                for i in range(len(atoms)):
                    tp, tq = delta[p][i], delta[q][i]
                    if tp == tq:
                        continue
                    hi, lo = max(tp, tq), min(tp, tq)
                    if marked[hi][lo]:
                        marked[p][q] = True
                        changed = True
                        break

    def same(p: int, q: int) -> bool:
        if p == q:
            return True
        return not marked[max(p, q)][min(p, q)]

    start = next(iter(a.starts))
    classes: list[int] = []
    for s in range(n):
        if same(s, dead) and s != start:
            continue
        if not any(same(s, rep) for rep in classes):
            classes.append(s)
    return len(classes)
