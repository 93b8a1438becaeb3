"""Byte-stream stepping kernel: the inner loop of :class:`falab.Simulator`.

The program is a triple ``(step, init, always)``: ``step[state]`` maps a
byte class index to the tuple of epsilon-closed successor states, ``init``
is the closed initial active set and ``always`` the closed set that
activates on every cycle.  The input is a string of class indices, one
per input byte.  The operation count adds one per successor visited and
one per every-cycle state per input byte.
"""

from __future__ import annotations


def step_stream(program, data: bytes):
    """Return (per-cycle active frozensets, operation count)."""
    step, init, always = program
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
        out.append(active)
    return out, work
