"""Byte-stream stepping kernel in plain Python: the specification.

This is the reference for the compiled kernel ``falab._simkernel``, the
one :class:`falab.Simulator` runs when it is built, and the fallback when
it is not.  Both take the same arguments and return the same values.

The program is a flat tuple ``(n, ncls, off, succ, init, always,
report)``, built once by :class:`falab.Simulator` as ``array('i')``
buffers:

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
The input is a string of class indices, one per input byte; an index at
or above ``ncls`` has no successors.  The operation count adds one per
successor visited and one per every-cycle state per input byte.

``step_stream(program, data)`` returns ``((per_cycle_count, activation,
reports), work)`` and builds no sets:

- ``per_cycle_count[t]`` is the size of the active set after input byte
  ``t``;
- ``activation[s]`` counts the cycles in which state ``s`` is active;
- ``reports`` lists ``(cycle, state)`` pairs: per cycle, for each report
  label with an active accepting state, the smallest such state, in
  label-index order;
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

``FORMAT`` numbers this layout; ``falab.simulate`` uses the compiled
kernel only when its ``FORMAT`` is the same.
"""

from __future__ import annotations

FORMAT = 3


def _steps(program, data: bytes):
    """Yield each cycle's active set and the operations spent on it."""
    n, ncls, off, succ, active, always, report = program
    for cls in data:
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
        reports.extend((t, best[k]) for k in sorted(best))
    return (counts, activation, reports), total


def active_sets(program, data: bytes) -> list[frozenset[int]]:
    """Return the per-cycle active frozensets of a scan of ``data``."""
    return [frozenset(active) for active, _ in _steps(program, data)]
