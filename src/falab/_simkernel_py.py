"""Byte-stream stepping kernel, subset walk, partition refinement and
table flip in plain Python: the specification.

This is the reference for the compiled kernel ``falab._simkernel``, the
one :class:`falab.Simulator` and the subset walk, refinement and flip of
``falab.transform`` run when it is built, and the fallback when it is
not.  Both take the same arguments and return the same values.

The program is a flat tuple ``(n, ncls, off, succ, init, always,
report)`` of ``array('i')`` buffers, built by ``falab.transform._program``
or, from a walked table, by ``flip`` (:class:`falab.Simulator` scans it,
the subset walk determinizes it, and ``refine`` refines a flipped one):

- ``n`` states and ``ncls`` byte classes;
- ``off`` holds ``n * ncls + 1`` nondecreasing offsets into ``succ``,
  from 0 to ``len(succ)``: the epsilon-closed successors of state ``s``
  on class ``c`` are ``succ[off[s * ncls + c]:off[s * ncls + c + 1]]``;
- ``init`` is the closed initial active set and ``always`` the closed set
  that activates on every cycle;
- ``report`` holds one item per state: -1 for a state that does not
  accept, and otherwise the index of its report label in a dense
  numbering of the labels (:class:`falab.Simulator` sorts them, with
  unlabeled last).

Every state is in ``0..n-1`` and every ``report`` item in ``-1..n-1``.
The input is a string of class indices, one per byte of any C-contiguous
bytes-like object (a str raises TypeError, and a strided view such as
``memoryview(b)[::2]`` BufferError); an index at or above ``ncls`` has no
successors.  The operation count is the number of successors this
module's step visits: per input byte, the length of each active state's
row on the byte's class (the first byte's active states are ``init`` as
it is, duplicates included), plus one per every-cycle state.  The
compiled kernel steps whole 64-bit words of the active set by masked
shifts once it has built a class's masks, and then visits no successor
on its own, but it returns the same count, summed from the row lengths,
so the count measures the scan's work however it is stepped.

``step_stream(program, data)`` returns ``((per_cycle_count, activation,
reports), work)`` and builds no sets:

- ``per_cycle_count[t]`` is the size of the active set after input byte
  ``t``;
- ``activation[s]`` counts the cycles in which state ``s`` is active;
- ``reports`` lists ``(cycle, state)`` pairs: per cycle, for each report
  label with an active accepting state, the smallest such state, in
  ascending state order;
- ``work`` is the operation count.

Counting mode, ``step_stream(program, data, rules)``: ``rules`` is a pair
``(rule_of, raw_start)``: an ``array('i')`` with one rule index in
``0..n-1`` per state, and ``bytes`` with one flag per state.  It returns
``(pairs, work)``, where each cycle's pair is ``(active_rules,
moving_rules)``: the number of rules with an active state, and of rules
with an active state whose flag is zero.  The operation count is the
same.

``active_sets(program, data)`` returns the list of per-cycle active
frozensets and no operation count, so that a caller who replays a scan
to look at its sets is not counted as scanning again.  A scan resumes
where another stopped when ``init`` is that scan's last set.

``subsets(program, cap)`` is the subset construction of the program,
breadth-first.  The first subset of states is ``init``, and the subset
that one reaches on class ``c`` is the union of its states' successors on
``c``, plus ``always`` (the closure of the ALL_INPUT starts in the walks
of ``falab.transform``, whose classes then cover every byte).  It
returns ``(labels, table)``, two ``array('i')`` with one DFA state per
subset found, each once, in breadth-first order (the empty subset is
only ever the first, when ``init`` is empty):

- ``labels[s]`` is the number of distinct report labels (the ``report``
  items other than -1) among the states of subset ``s``, so 0 where it
  accepts nothing;
- ``table`` has ``len(labels) * ncls`` items: ``table[s * ncls + c]`` is
  the state that ``s`` reaches on class ``c``, or -1 when that subset is
  empty (no move);
- each row's new subsets are numbered upwards in the order of the
  highest class that reaches each: when the classes are the ascending
  atoms of the byte alphabet, that is ascending order of the class
  masks that lead to them.

It raises ValueError when ``cap`` is below 1, and returns None when more
than ``cap`` subsets would be found (``falab.transform`` raises its
``CapExceededError`` then).  Neither kernel imports any part of
``falab``.

``flip(natoms, labels, table)`` reverses a dense DFA table laid out as
``subsets`` returns it: ``n = len(labels)`` states over ``natoms``
classes, ``table[s * natoms + i]`` the state that ``s`` reaches on class
``i`` or -1 for no move, and ``s`` accepting where ``labels[s]`` is above
0.  It completes the table with a dead state, index ``n``: every -1
target goes to it, and it loops on every class.  It returns the program,
laid out as above with ``n + 1`` states and ``ncls = natoms``, of those
states with every move reversed: the successors of ``t`` on class ``i``
are the states that reach ``t`` on ``i``, in ascending order; ``init``
holds the accepting states, ascending; ``always`` is empty; and
``report`` is 0 at state 0, the table's start, and -1 elsewhere.  Only
the dead state moves to the dead state, so ``subsets`` of the result
never holds it: it walks the reversed language, and a subset accepts
exactly where it holds the start (the middle step of Brzozowski's
minimization).  The compiled kernel raises TypeError when ``labels`` or
``table`` is not a buffer of ``'i'`` items, and ValueError when
``natoms`` is outside 0..256, when ``len(table)`` is not ``len(labels) *
natoms``, or when a target is outside -1..n-1, naming the array and
index; both kernels raise IndexError when ``labels`` is empty: a table
with no state 0 has no start to report.

``refine(program)`` is Hopcroft's partition refinement (Hopcroft 1971)
of the complete DFA that ``program`` reverses, as ``flip`` returns it:
the predecessors of ``t`` on class ``i`` are its successors in the
program, and the accepting states are ``init``.  Refinement starts from
the accepting/non-accepting split; a splitter block is taken off the
worklist with all classes at once, and of the two halves of a split
block only the smaller goes on (unless the block was waiting there
already), so the work is O(m log n) for m moves.  It returns an
``array('i')`` with the block of each of the program's states (for a
flipped table, the dead state last), where two states share a block
exactly when they accept the same words; blocks are numbered
canonically, in order of their smallest member, so both kernels return
equal arrays, and a program with no states gives an empty one.  States
in the dead state's block cannot reach acceptance.  The compiled kernel
checks the program as ``subsets`` does, with the same errors.

``FORMAT`` numbers this layout; ``falab.transform`` uses the compiled
kernel only when its ``FORMAT`` is the same.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, chain

FORMAT = 10


def _steps(program, data: bytes):
    """Yield each cycle's active set and the operations spent on it."""
    n, ncls, off, succ, active, always, report = program
    view = memoryview(data)
    if not view.c_contiguous:  # as PyObject_GetBuffer refuses it
        raise BufferError("memoryview: underlying buffer is not C-contiguous")
    for cls in view.cast("B"):
        nxt: set[int] = set()
        work = len(always)
        if cls < ncls:
            for s in active:
                lo, hi = off[s * ncls + cls], off[s * ncls + cls + 1]
                work += hi - lo
                nxt.update(succ[lo:hi])
        nxt.update(always)
        yield nxt, work
        active = nxt


def step_stream(program, data: bytes, rules=None):
    """Return (per-cycle summary or rule-count pairs, operation count)."""
    total = 0
    if rules is not None:
        rule_of, raw_start = rules
        pairs = []
        for active, work in _steps(program, data):
            total += work
            pairs.append((len({rule_of[s] for s in active}),
                          len({rule_of[s] for s in active
                               if not raw_start[s]})))
        return pairs, total
    report = program[6]
    counts, activation, reports = [], [0] * program[0], []
    for t, (active, work) in enumerate(_steps(program, data)):
        total += work
        counts.append(len(active))
        best: dict[int, int] = {}
        for s in active:
            activation[s] += 1
            k = report[s]
            if k >= 0 and (k not in best or s < best[k]):
                best[k] = s
        reports.extend((t, s) for s in sorted(best.values()))
    return (counts, activation, reports), total


def active_sets(program, data: bytes) -> list[frozenset[int]]:
    """Return the per-cycle active frozensets of a scan of ``data``."""
    return [frozenset(active) for active, _ in _steps(program, data)]


def subsets(program, cap: int) -> tuple[array, array] | None:
    """Return (labels, table) of the program's subset construction, or
    None when it would find more than ``cap`` subsets."""
    if cap < 1:
        raise ValueError(f"determinization cap must be at least 1 (got {cap})")
    n, ncls, off, succ, init, always, report = program
    rows = []  # per state: (class, successor bitset) for each nonempty class
    for s in range(n):
        row = []
        for c in range(ncls):
            bits = 0
            for t in succ[off[s * ncls + c]:off[s * ncls + c + 1]]:
                bits |= 1 << t
            if bits:
                row.append((c, bits))
        rows.append(row)
    every = 0
    for s in always:
        every |= 1 << s
    first = 0
    for s in init:
        first |= 1 << s

    ids: dict[int, int] = {0: -1}  # the empty subset is no move
    if first:
        ids[first] = 0
    found = [first]
    labels, table = array("i"), array("i")
    for subset in found:  # grows while it is walked: BFS
        step = [every] * ncls
        seen = set()
        while subset:
            low = subset & -subset
            subset ^= low
            s = low.bit_length() - 1
            seen.add(report[s])
            for c, bits in rows[s]:
                step[c] |= bits
        seen.discard(-1)
        labels.append(len(seen))
        # one lookup per class, as hashing a subset costs O(its size)
        row = list(map(ids.get, step))
        if None in row:
            # Scanning the classes downwards meets the new subsets in
            # order of their highest class, descending; they are numbered
            # upwards.
            fresh: dict[int, list[int]] = {}
            for c in range(ncls - 1, -1, -1):
                if row[c] is None:
                    fresh.setdefault(step[c], []).append(c)
            if len(found) + len(fresh) > cap:
                return None
            for target, where in reversed(fresh.items()):
                ids[target] = len(found)
                for c in where:
                    row[c] = len(found)
                found.append(target)
        table.extend(row)
    return labels, table


def flip(natoms: int, labels, table) -> tuple:
    """The kernel program of a dense table, completed with the dead state,
    with its edges flipped: the successors of ``t`` on atom ``i`` are the
    states that reach ``t`` on ``i``.  The accepting states are the
    initial set, and the start, state 0, is the one state with a report
    label, so a walk of the program accepts where it holds it."""
    n = len(labels)
    if not n:
        raise IndexError("labels is empty: the table has no start state to "
                         "report")
    # cols[i][t]: the states that move to t on atom i, ascending
    cols = [[[] for _ in range(n + 1)] for _ in range(natoms)]
    for i, col in enumerate(cols):
        # col[t].append(s) for each state s and its target t, the -1
        # targets landing in col[n], with the loop in map rather than in
        # bytecode
        deque(map(list.append, map(col.__getitem__, table[i::natoms]),
                  range(n)), maxlen=0)
        col[n].append(n)  # the dead state loops on every atom
    # (t, i) order: state-major, as the program lays its rows out
    rows = list(chain.from_iterable(zip(*cols)))
    report = array("i", [-1]) * (n + 1)
    report[0] = 0
    return (n + 1, natoms, array("i", accumulate(map(len, rows), initial=0)),
            array("i", chain.from_iterable(rows)),
            array("i", [s for s in range(n) if labels[s] > 0]), array("i"),
            report)


def refine(program) -> array:
    """Return the canonically numbered block of each state of the
    refinement of the DFA that the flipped program reverses."""
    total, ncls, off, succ, init = program[:5]
    if not total:
        return array("i")
    accepting = set(init)
    blocks = [b for b in (accepting, set(range(total)) - accepting) if b]
    block_of = [0] * total
    for s in blocks[-1]:
        block_of[s] = len(blocks) - 1
    # the dead state makes the DFA complete, so one half of the first
    # split suffices as a splitter, and one block splits nothing
    worklist = ({min(range(2), key=lambda b: len(blocks[b]))}
                if len(blocks) == 2 else set())
    while worklist:
        splitter = tuple(blocks[worklist.pop()])
        for i in range(ncls):
            moved: dict[int, list[int]] = {}
            for t in splitter:
                for s in succ[off[t * ncls + i]:off[t * ncls + i + 1]]:
                    moved.setdefault(block_of[s], []).append(s)
            for b, members in moved.items():
                block = blocks[b]
                if len(members) == len(block):
                    continue
                new_block = set(members)
                block -= new_block
                if len(block) < len(new_block):
                    block, new_block = new_block, block
                    blocks[b] = block
                new = len(blocks)
                blocks.append(new_block)
                for s in new_block:
                    block_of[s] = new
                # new_block is the smaller half; when b was waiting, both
                # halves wait now
                worklist.add(new)
    canonical: dict[int, int] = {}  # in order of each block's smallest state
    return array("i", [canonical.setdefault(b, len(canonical))
                       for b in block_of])
