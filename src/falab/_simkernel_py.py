"""Byte-stream stepping kernel in plain Python: the specification.

This is the reference for the compiled kernel ``falab._simkernel``, the
one :class:`falab.Simulator` runs when it is built, and the fallback when
it is not.  Both take the same arguments and return the same values.

The program is a triple ``(step, init, always)``: ``step[state]`` maps a
byte class index to the tuple of epsilon-closed successor states, ``init``
is the closed initial active set and ``always`` the closed set that
activates on every cycle.  The input is a string of class indices, one
per input byte.  The operation count adds one per successor visited and
one per every-cycle state per input byte.

Counting mode: ``rules`` is a pair ``(rule_of, raw_start)`` with one rule
index in ``0..len(step)-1`` and one flag per state.  Each cycle then
yields ``(active_rules, moving_rules)``: the number of rules with an
active state, and of rules with an active state whose flag is false,
in place of the active set.  The operation count is the same.
"""

from __future__ import annotations


def step_stream(program, data: bytes, rules=None):
    """Return (per-cycle active frozensets or rule-count pairs, op count)."""
    step, init, always = program
    if rules is not None:
        rule_of, raw_start = rules
    active = init
    out = []
    work = 0
    for cls in data:
        nxt: set[int] = set()
        for s in active:
            targets = step[s].get(cls)
            if targets:
                work += len(targets)
                nxt.update(targets)
        work += len(always)
        nxt.update(always)
        active = frozenset(nxt)
        if rules is None:
            out.append(active)
        else:
            out.append((len({rule_of[s] for s in active}),
                        len({rule_of[s] for s in active if not raw_start[s]})))
    return out, work
