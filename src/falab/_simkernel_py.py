"""Byte-stream stepping kernel in plain Python: the specification.

This is the reference for the compiled kernel ``falab._simkernel``, the
one :class:`falab.Simulator` runs when it is built, and the fallback when
it is not.  Both take the same arguments and return the same values.

The program is a flat tuple ``(n, ncls, off, succ, init, always)``, built
once by :class:`falab.Simulator` as ``array('i')`` buffers:

- ``n`` states and ``ncls`` byte classes;
- ``off`` holds ``n * ncls + 1`` nondecreasing offsets into ``succ``,
  from 0 to ``len(succ)``: the epsilon-closed successors of state ``s``
  on class ``c`` are ``succ[off[s * ncls + c]:off[s * ncls + c + 1]]``;
- ``init`` is the closed initial active set and ``always`` the closed set
  that activates on every cycle.

Every state is in ``0..n-1``.  The input is a string of class indices,
one per input byte; an index at or above ``ncls`` has no successors.  The
operation count adds one per successor visited and one per every-cycle
state per input byte.

Counting mode: ``rules`` is a pair ``(rule_of, raw_start)``: an
``array('i')`` with one rule index in ``0..n-1`` per state, and ``bytes``
with one flag per state.  Each cycle then yields
``(active_rules, moving_rules)``: the number of rules with an active
state, and of rules with an active state whose flag is zero, in place of
the active set.  The operation count is the same.

``FORMAT`` numbers this layout; ``falab.simulate`` uses the compiled
kernel only when its ``FORMAT`` is the same.
"""

from __future__ import annotations

FORMAT = 2


def step_stream(program, data: bytes, rules=None):
    """Return (per-cycle active frozensets or rule-count pairs, op count)."""
    n, ncls, off, succ, init, always = program
    if rules is not None:
        rule_of, raw_start = rules
    active = init
    out = []
    work = 0
    for cls in data:
        nxt: set[int] = set()
        if cls < ncls:
            for s in active:
                lo, hi = off[s * ncls + cls], off[s * ncls + cls + 1]
                work += hi - lo
                nxt.update(succ[lo:hi])
        work += len(always)
        nxt.update(always)
        active = frozenset(nxt)
        if rules is None:
            out.append(active)
        else:
            out.append((len({rule_of[s] for s in active}),
                        len({rule_of[s] for s in active if not raw_start[s]})))
    return out, work
