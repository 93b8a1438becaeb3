"""Regex subset compiler producing epsilon-NFAs.

Supported syntax: literal bytes, escapes (``\\xHH``, ``\\n``, ``\\r``,
``\\t``, ``\\0``, and escaped metacharacters), ``.`` (any byte),
character classes ``[...]`` / ``[^...]`` with ranges, concatenation,
alternation ``|``, ``*``, ``+``, ``?``, and counted repetition ``{n}`` /
``{n,m}`` with bounds capped at ``MAX_REPEAT`` (expanded by duplication,
no counter states).  Matching is anchored: the automaton's language is
exactly the set of full matches; unanchored scanning is expressed by the
caller with an ALL_INPUT start kind or an explicit ``.*`` prefix.

Two more bounds keep a short pattern from asking for unbounded work.
Groups nest at most ``MAX_NESTING`` deep, as the parser recurses on
each.  A pattern, and each part of it, expands to at most ``MAX_STATES``
NFA states, as nested counted repeats multiply (``((a{16}){16}){16}`` is
8,192 states); the parser counts each node's states as it goes.  A
:class:`RegexParseError` names the ``(`` that passes the first bound,
and the quantifier (or, in a concatenation or alternation, the part)
that passes the second.

The module also provides :func:`reference_match`, a direct backtracking
matcher over the parse tree, used as an independent semantics reference
for the NFA construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ALPHABET_SIZE, Automaton, StartKind, SymbolClass

MAX_REPEAT = 4096  # the largest bound of a counted repeat
MAX_NESTING = 100  # the deepest nesting of groups
MAX_STATES = 1 << 16  # the most NFA states a pattern compiles to

_METACHARS = set("()[]{}|*+?.\\")
_ESCAPE_NAMES = {"n": 0x0A, "r": 0x0D, "t": 0x09, "0": 0x00}


class RegexParseError(ValueError):
    """Malformed pattern; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# ---------------------------------------------------------------------------
# Parse tree


@dataclass(frozen=True)
class Chars:
    cls: SymbolClass


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Alt:
    options: tuple


@dataclass(frozen=True)
class Repeat:
    node: object
    lo: int
    hi: int | None  # None = unbounded (from * and +)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # groups open at pos

    def error(self, message: str) -> RegexParseError:
        return RegexParseError(message, self.pos)

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def parse(self):
        node, _ = self.parse_alt()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    # Each parse_* method below returns its node and the number of states
    # that _Builder gives it.

    def grown(self, size: int, position: int) -> int:
        """``size``, unless it passes MAX_STATES: then a RegexParseError at
        ``position``, where the part or quantifier that passed it starts."""
        if size > MAX_STATES:
            raise RegexParseError(
                f"pattern expands to more than {MAX_STATES} states", position)
        return size

    def parse_alt(self):
        node, size = self.parse_concat()
        options, total = [node], size + 2  # an entry and an exit state
        while self.peek() == "|":
            self.take()
            start = self.pos
            node, part = self.parse_concat()
            options.append(node)
            total = self.grown(total + part, start)
        if len(options) == 1:
            return node, size
        return Alt(tuple(options)), total

    def parse_concat(self):
        parts, total = [], 0
        while self.peek() not in (None, "|", ")"):
            start = self.pos
            node, size = self.parse_repeat()
            parts.append(node)
            total = self.grown(total + size, start)
        if len(parts) == 1:
            return parts[0], total
        return Concat(tuple(parts)), total or 1  # empty: one state

    def parse_repeat(self):
        node, size = self.parse_atom()
        while True:
            start, ch = self.pos, self.peek()
            if ch in ("*", "+", "?"):
                self.take()
                lo, hi = {"*": (0, None), "+": (1, None), "?": (0, 1)}[ch]
            elif ch == "{":
                lo, hi = self.parse_counts()
            else:
                return node, size
            node = Repeat(node, lo, hi)
            size = self.grown(size + 2 if hi is None else
                              lo * size + (hi - lo) * (size + 1) + (lo == 0),
                              start)
            # reject stacked quantifiers such as "a**"
            if self.peek() in ("*", "+", "?", "{"):
                raise self.error("quantifier follows quantifier")

    def parse_counts(self) -> tuple[int, int]:
        self.take()  # '{'
        lo = self.parse_int()
        hi = lo
        if self.peek() == ",":
            self.take()
            hi = self.parse_int()
        if self.peek() != "}":
            raise self.error("expected '}'")
        self.take()
        if hi < lo:
            raise self.error(f"bad repetition range {{{lo},{hi}}}")
        if hi > MAX_REPEAT:
            raise self.error(f"repetition bound exceeds {MAX_REPEAT}")
        return lo, hi

    def parse_int(self) -> int:
        start = self.pos
        while self.peek() is not None and self.peek().isdigit():
            self.take()
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start:self.pos])

    def parse_atom(self):
        ch = self.peek()
        if ch is None:
            raise self.error("unexpected end of pattern")
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"groups nested deeper than {MAX_NESTING}")
            self.take()
            self.depth += 1
            inner = self.parse_alt()
            self.depth -= 1
            if self.peek() != ")":
                raise self.error("unbalanced '('")
            self.take()
            return inner
        if ch == ")":
            raise self.error("unbalanced ')'")
        if ch in "*+?":
            raise self.error("nothing to repeat")
        if ch in "{}":
            raise self.error(f"unexpected {ch!r}")
        if ch == ".":
            self.take()
            return Chars(SymbolClass.full()), 2
        if ch == "[":
            return Chars(self.parse_class()), 2
        if ch == "\\":
            return Chars(SymbolClass.of([self.parse_escape()])), 2
        if ord(ch) > 0xFF:
            raise self.error(f"non-byte character {ch!r}")
        self.take()
        return Chars(SymbolClass.of([ord(ch)])), 2

    def parse_escape(self) -> int:
        self.take()  # backslash
        ch = self.peek()
        if ch is None:
            raise self.error("dangling escape")
        if ch == "x":
            self.take()
            digits = self.text[self.pos:self.pos + 2]
            if len(digits) != 2 or any(c not in "0123456789abcdefABCDEF" for c in digits):
                raise self.error("\\x needs two hex digits")
            self.pos += 2
            return int(digits, 16)
        if ch in _ESCAPE_NAMES:
            self.take()
            return _ESCAPE_NAMES[ch]
        if ch in _METACHARS or ch in "-^]":
            self.take()
            return ord(ch)
        raise self.error(f"unsupported escape \\{ch}")

    def parse_class(self) -> SymbolClass:
        opening = self.pos
        self.take()  # '['
        negate = False
        if self.peek() == "^":
            self.take()
            negate = True
        mask = 0

        def next_member() -> int:
            ch = self.peek()
            if ch is None:
                raise self.error("unterminated character class")
            if ch == "\\":
                return self.parse_escape()
            if ord(ch) > 0xFF:
                raise self.error(f"non-byte character {ch!r}")
            self.take()
            return ord(ch)

        while self.peek() != "]":
            if self.peek() is None:
                raise RegexParseError("unterminated character class", opening)
            lo = next_member()
            if self.peek() == "-" and self.pos + 1 < len(self.text) \
                    and self.text[self.pos + 1] != "]":
                self.take()
                hi = next_member()
                if hi < lo:
                    raise self.error(f"reversed class range")
                mask |= SymbolClass.byte_range(lo, hi).mask
            else:
                mask |= 1 << lo
        self.take()  # ']'
        if negate:
            mask = SymbolClass(mask).complement().mask
        if mask == 0:
            raise RegexParseError("empty character class", opening)
        return SymbolClass(mask)


def parse_regex(text: str):
    """Parse to a tree of Chars/Concat/Alt/Repeat nodes."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Thompson construction


class _Builder:
    def __init__(self):
        self.count = 0
        self.edges: list[tuple[int, SymbolClass, int]] = []
        self.eps: list[tuple[int, int]] = []

    def state(self) -> int:
        self.count += 1
        return self.count - 1

    def build(self, node) -> tuple[int, int]:
        """Return (entry, exit) of the fragment for ``node``."""
        if isinstance(node, Chars):
            s, t = self.state(), self.state()
            self.edges.append((s, node.cls, t))
            return s, t
        if isinstance(node, Concat):
            if not node.parts:
                s = self.state()
                return s, s
            entry, cur = self.build(node.parts[0])
            for part in node.parts[1:]:
                nxt_entry, nxt_exit = self.build(part)
                self.eps.append((cur, nxt_entry))
                cur = nxt_exit
            return entry, cur
        if isinstance(node, Alt):
            s, t = self.state(), self.state()
            for option in node.options:
                entry, exit_ = self.build(option)
                self.eps.append((s, entry))
                self.eps.append((exit_, t))
            return s, t
        if isinstance(node, Repeat):
            if node.hi is None:
                if node.lo == 0:
                    return self._star(node.node)
                # e{lo,} = e^(lo-1) e*  with the last copy looped
                entry, cur = self._chain(node.node, node.lo - 1)
                star_entry, star_exit = self._plus(node.node)
                if entry is None:
                    return star_entry, star_exit
                self.eps.append((cur, star_entry))
                return entry, star_exit
            # bounded: lo required copies then hi-lo optional copies
            entry, cur = self._chain(node.node, node.lo)
            if entry is None:
                entry = cur = self.state()
            for _ in range(node.hi - node.lo):
                opt_entry, opt_exit = self.build(node.node)
                tail = self.state()
                self.eps.append((cur, opt_entry))
                self.eps.append((cur, tail))
                self.eps.append((opt_exit, tail))
                cur = tail
            return entry, cur
        raise TypeError(f"unknown node {node!r}")

    def _chain(self, node, n: int) -> tuple[int | None, int | None]:
        entry = cur = None
        for _ in range(n):
            frag_entry, frag_exit = self.build(node)
            if entry is None:
                entry = frag_entry
            else:
                self.eps.append((cur, frag_entry))
            cur = frag_exit
        return entry, cur

    def _star(self, node) -> tuple[int, int]:
        s, t = self.state(), self.state()
        entry, exit_ = self.build(node)
        self.eps += [(s, entry), (exit_, t), (s, t), (exit_, entry)]
        return s, t

    def _plus(self, node) -> tuple[int, int]:
        s, t = self.state(), self.state()
        entry, exit_ = self.build(node)
        self.eps += [(s, entry), (exit_, t), (exit_, entry)]
        return s, t


def compile_regex(text: str,
                  start_kind: StartKind = StartKind.START_OF_DATA) -> Automaton:
    """Compile a pattern to an epsilon-NFA accepting exactly its language.

    The single start state carries ``start_kind``; the single accept state
    marks the pattern end.
    """
    tree = parse_regex(text)
    builder = _Builder()
    entry, exit_ = builder.build(tree)
    return Automaton(
        state_count=builder.count,
        edges=tuple(builder.edges),
        epsilon_edges=tuple(builder.eps),
        starts={entry: start_kind},
        accepts=frozenset([exit_]),
    )


# ---------------------------------------------------------------------------
# Reference matcher (independent of the automaton machinery)


def _match_ends(node, data: bytes, i: int, memo: dict) -> frozenset[int]:
    """All positions j >= i such that node matches data[i:j]."""
    key = (id(node), i)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, Chars):
        if i < len(data) and data[i] in node.cls:
            out = frozenset([i + 1])
        else:
            out = frozenset()
    elif isinstance(node, Concat):
        positions = {i}
        for part in node.parts:
            positions = {j for p in positions
                         for j in _match_ends(part, data, p, memo)}
            if not positions:
                break
        out = frozenset(positions)
    elif isinstance(node, Alt):
        out = frozenset().union(
            *[_match_ends(opt, data, i, memo) for opt in node.options])
    elif isinstance(node, Repeat):
        # Count bound: any position reachable with >= lo repetitions is
        # reachable with at most lo + remaining-input + 1 of them (drop
        # zero-width repetitions, then pad back up to lo).
        hi = node.hi if node.hi is not None else node.lo + (len(data) - i) + 1
        frontier = {i}
        out_positions = set([i] if node.lo == 0 else [])
        for count in range(1, hi + 1):
            frontier = {j for p in frontier
                        for j in _match_ends(node.node, data, p, memo)}
            if count >= node.lo:
                out_positions |= frontier
            if not frontier:
                break
        out = frozenset(out_positions)
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    memo[key] = out
    return out


def reference_match(text: str, data: bytes) -> bool:
    """Backtracking full-match check, bypassing the NFA path entirely."""
    tree = parse_regex(text)
    return len(data) in _match_ends(tree, data, 0, {})


# ---------------------------------------------------------------------------
# Character-class string syntax (shared with the document formats)

_SAFE_IN_CLASS = set(
    b"!\"#$%&'()*+,./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ_`"
    b"abcdefghijklmnopqrstuvwxyz{|}~"
)


def parse_class_string(text: str) -> SymbolClass:
    """Parse ``"a"`` (single byte) or ``"[...]"`` / ``"[^...]"`` forms."""
    if text.startswith("["):
        parser = _Parser(text)
        cls = parser.parse_class()
        if parser.pos != len(text):
            raise RegexParseError("trailing characters after class", parser.pos)
        return cls
    if len(text) == 1 and ord(text) <= 0xFF:
        return SymbolClass.of([ord(text)])
    raise RegexParseError("malformed class string", 0)


def _render_byte(b: int) -> str:
    if b in _SAFE_IN_CLASS:
        return chr(b)
    return f"\\x{b:02x}"


def _render_members(cls: SymbolClass) -> str:
    runs: list[tuple[int, int]] = []
    for b in cls.values():
        if runs and runs[-1][1] == b - 1:
            runs[-1] = (runs[-1][0], b)
        else:
            runs.append((b, b))
    parts = []
    for lo, hi in runs:
        if hi - lo >= 2:
            parts.append(f"{_render_byte(lo)}-{_render_byte(hi)}")
        else:
            parts.extend(_render_byte(b) for b in range(lo, hi + 1))
    return "".join(parts)


def escape_literal(data: bytes) -> str:
    """Pattern text matching ``data`` literally."""
    out = []
    for b in data:
        ch = chr(b)
        if ch in _METACHARS:
            out.append("\\" + ch)
        elif 0x21 <= b <= 0x7E:
            out.append(ch)
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def render_class_string(cls: SymbolClass) -> str:
    """Canonical text form: single safe byte, else a bracket expression.

    Classes covering more than half the alphabet render negated, so wide
    classes stay readable.  ``parse_class_string`` inverts this rendering
    exactly.
    """
    if not cls:
        raise ValueError("cannot render an empty symbol class")
    if cls.size == 1:
        (b,) = cls.values()
        if b in _SAFE_IN_CLASS and chr(b) not in "[]^-\\":
            return chr(b)
        return f"[{_render_byte(b)}]"
    if cls.size > ALPHABET_SIZE // 2:
        return f"[^{_render_members(cls.complement())}]"
    return f"[{_render_members(cls)}]"
