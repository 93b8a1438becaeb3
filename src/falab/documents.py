"""On-disk JSON formats for automata and pattern sets, plus trace export.

Documents are strict: unknown fields and malformed values are rejected
with a JSON-pointer-style path to the offending element.  Byte values
map to JSON strings through latin-1, so every byte round-trips.

Edge classes are written in a canonical character-set syntax (single safe
byte, ``[...]`` with ranges and ``\\xHH`` escapes, or ``[^...]`` when the
complement is smaller); a 64-hex-digit bitset literal is accepted on load
for exactness.

A pattern-set entry is ``{"id", "kind", <the fields of the kind's source
dataclass, in order>}``, each field read by its declared type; an entry
the source dataclass refuses is an error at the entry's path.

An automaton document may claim ``"deterministic": true``.  The writer
never emits the key, as an automaton is a DFA by its structure alone;
the loader accepts a boolean there and rejects a true claim on an
automaton that :func:`~falab.core.is_deterministic` rejects.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import typing
from dataclasses import dataclass, fields

from .core import (ALPHABET_SIZE, Automaton, StartKind, SymbolClass,
                   is_deterministic)
from .generators import (DotStarSource, HammingSource, LevenshteinSource,
                         Pattern, RandomRecipe, RegexSource)
from .regex import RegexParseError, parse_class_string, render_class_string
from .simulate import SimulationTrace

AUTOMATON_VERSION = 1
PATTERN_SET_VERSION = 1

_START_KINDS = {k.value: k for k in StartKind}


class DocumentError(ValueError):
    """Schema violation; the message carries a JSON-pointer-ish path.

    Raised by a file load, it names the file first: ``FILE: PATH: ...``
    (the root's empty path is left out).
    """

    def __init__(self, path: str, message: str, file: str | None = None):
        super().__init__(": ".join(filter(None, (file, path, message))))
        self.path = path
        self.message = message
        self.file = file


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise DocumentError(path, message)


def _require_keys(obj: dict, path: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> None:
    for key in required:
        _expect(key in obj, path, f"missing field {key!r}")
    for key in obj:
        _expect(key in required or key in optional, f"{path}/{key}",
                "unknown field")


def _choice(value, table: dict, path: str, what: str):
    _expect(isinstance(value, str) and value in table, path,
            f"unknown {what} {value!r}")
    return table[value]


def _field(obj: dict, path: str, key: str, hint: type):
    """``obj[key]`` as a value of type ``hint``: ``int``, ``float`` (any
    finite number: not NaN, not infinite, and no integer beyond the float
    range), ``str``, or ``bytes`` (a string of latin-1 characters)."""
    value, path = obj[key], f"{path}/{key}"
    if hint is int:
        _expect(isinstance(value, int) and not isinstance(value, bool), path,
                "expected an integer")
        return value
    if hint is float:
        _expect(isinstance(value, (int, float))
                and not isinstance(value, bool), path, "expected a number")
        # false for NaN, the infinities and integers beyond the floats
        _expect(abs(value) <= sys.float_info.max, path,
                "expected a finite number")
        return float(value)
    _expect(isinstance(value, str), path, "expected a string")
    try:
        return value if hint is str else value.encode("latin-1")
    except UnicodeEncodeError:
        raise DocumentError(path, "characters above U+00FF are not bytes")


def _objects(doc: dict, key: str, names: tuple[str, ...] | None = None):
    """Yield ``(path, entry)`` per object of the list ``doc[key]`` (absent
    means empty), whose keys must be ``names`` unless that is None."""
    entries = doc.get(key, [])
    _expect(isinstance(entries, list), f"/{key}", "expected a list")
    for i, entry in enumerate(entries):
        path = f"/{key}/{i}"
        _expect(isinstance(entry, dict), path, "expected an object")
        if names is not None:
            _require_keys(entry, path, names)
        yield path, entry


_HEX_DIGITS = set("0123456789abcdefABCDEF")


def parse_class_field(text: str, path: str) -> SymbolClass:
    _expect(isinstance(text, str), path, "expected a string")
    if text == "":
        raise DocumentError(path, "empty symbol class")
    if not text.startswith("[") and len(text) > 1 and set(text) <= _HEX_DIGITS:
        if len(text) != ALPHABET_SIZE // 4:
            raise DocumentError(
                path, f"class literal length (expected 64 hex digits, "
                      f"got {len(text)})")
        cls = SymbolClass(int(text, 16))
        if not cls:
            raise DocumentError(path, "empty symbol class")
        return cls
    try:
        return parse_class_string(text)
    except RegexParseError as exc:
        raise DocumentError(path, f"bad class string: {exc}") from exc


# ---------------------------------------------------------------------------
# Automaton documents


def automaton_to_document(a: Automaton) -> dict:
    doc: dict = {
        "version": AUTOMATON_VERSION,
        "states": a.state_count,
        "starts": [{"id": s, "kind": a.starts[s].value}
                   for s in sorted(a.starts)],
        "accepts": sorted(a.accepts),
        "edges": [{"src": s, "dst": d, "class": render_class_string(c)}
                  for s, c, d in a.edges],
    }
    if a.epsilon_edges:
        doc["epsilon_edges"] = [{"src": s, "dst": d}
                                for s, d in a.epsilon_edges]
    if a.component_labels:
        doc["labels"] = {str(s): a.component_labels[s]
                         for s in sorted(a.component_labels)}
    return doc


def automaton_from_document(doc: dict) -> Automaton:
    _expect(isinstance(doc, dict), "", "expected an object")
    _require_keys(doc, "", ("version", "states", "starts", "accepts", "edges"),
                  ("epsilon_edges", "deterministic", "labels"))
    version = _field(doc, "", "version", int)
    _expect(version == AUTOMATON_VERSION, "/version",
            f"version mismatch: expected {AUTOMATON_VERSION}, got {version}")
    states = _field(doc, "", "states", int)

    starts = {_field(entry, path, "id", int): _choice(
                  entry["kind"], _START_KINDS, f"{path}/kind", "start kind")
              for path, entry in _objects(doc, "starts", ("id", "kind"))}

    _expect(isinstance(doc["accepts"], list), "/accepts", "expected a list")
    accepts = []
    for i, entry in enumerate(doc["accepts"]):
        _expect(isinstance(entry, int) and not isinstance(entry, bool),
                f"/accepts/{i}", "expected an integer")
        accepts.append(entry)

    edges = [(_field(entry, path, "src", int),
              parse_class_field(entry["class"], f"{path}/class"),
              _field(entry, path, "dst", int))
             for path, entry in _objects(doc, "edges", ("src", "dst", "class"))]
    eps = [(_field(entry, path, "src", int), _field(entry, path, "dst", int))
           for path, entry in _objects(doc, "epsilon_edges", ("src", "dst"))]

    deterministic = doc.get("deterministic", False)
    _expect(isinstance(deterministic, bool), "/deterministic",
            "expected a boolean")

    labels = None
    if "labels" in doc:
        _expect(isinstance(doc["labels"], dict), "/labels", "expected an object")
        labels = {}
        for key, value in doc["labels"].items():
            path = f"/labels/{key}"
            _expect(key.isdecimal(), path, "state keys must be decimal")
            _expect(isinstance(value, int) and not isinstance(value, bool),
                    path, "expected an integer label")
            _expect(int(key) not in labels, path,
                    f"duplicate label for state {int(key)}")
            labels[int(key)] = value

    a = Automaton(
        state_count=states,
        edges=tuple(edges),
        epsilon_edges=tuple(eps),
        starts=starts,
        accepts=frozenset(accepts),
        component_labels=labels,
    )
    _expect(not deterministic or is_deterministic(a), "/deterministic",
            "the automaton is not deterministic")
    return a


# ---------------------------------------------------------------------------
# Pattern-set documents


@dataclass(frozen=True)
class PatternSet:
    patterns: tuple[Pattern, ...]
    start_kind: StartKind
    seed: int | None = None


# The format's name for each source dataclass, and each one's fields in
# order with their declared types.
_SOURCES = {"regex": RegexSource, "dotstar": DotStarSource,
            "hamming": HammingSource, "levenshtein": LevenshteinSource,
            "random": RandomRecipe}
_KINDS = {cls: kind for kind, cls in _SOURCES.items()}
_FIELDS = {cls: {f.name: typing.get_type_hints(cls)[f.name]
                 for f in fields(cls)} for cls in _KINDS}


def _pattern_to_entry(p: Pattern) -> dict:
    entry = {"id": p.id, "kind": _KINDS[type(p.source)]}
    for key, hint in _FIELDS[type(p.source)].items():
        value = getattr(p.source, key)
        entry[key] = value.decode("latin-1") if hint is bytes else value
    return entry


def _entry_to_pattern(entry: dict, path: str) -> Pattern:
    _expect("kind" in entry, path, "missing field 'kind'")
    cls = _choice(entry["kind"], _SOURCES, f"{path}/kind", "pattern kind")
    _require_keys(entry, path, ("id", "kind", *_FIELDS[cls]))
    values = [_field(entry, path, key, hint)
              for key, hint in _FIELDS[cls].items()]
    try:
        source = cls(*values)
    except ValueError as exc:  # a recipe its generator would refuse
        raise DocumentError(path, str(exc)) from None
    return Pattern(_field(entry, path, "id", int), source)


def pattern_set_to_document(ps: PatternSet) -> dict:
    doc: dict = {
        "version": PATTERN_SET_VERSION,
        "start_kind": ps.start_kind.value,
        "patterns": [_pattern_to_entry(p) for p in ps.patterns],
    }
    if ps.seed is not None:
        doc["seed"] = ps.seed
    return doc


def pattern_set_from_document(doc: dict) -> PatternSet:
    _expect(isinstance(doc, dict), "", "expected an object")
    _require_keys(doc, "", ("version", "start_kind", "patterns"), ("seed",))
    version = _field(doc, "", "version", int)
    _expect(version == PATTERN_SET_VERSION, "/version",
            f"version mismatch: expected {PATTERN_SET_VERSION}, got {version}")
    kind = _choice(doc["start_kind"], _START_KINDS, "/start_kind", "start kind")
    patterns = tuple(_entry_to_pattern(entry, path)
                     for path, entry in _objects(doc, "patterns"))
    ids = [p.id for p in patterns]
    _expect(len(set(ids)) == len(ids), "/patterns", "pattern ids must be unique")
    seed = doc.get("seed")
    if seed is not None:
        _expect(isinstance(seed, int) and not isinstance(seed, bool),
                "/seed", "expected an integer")
    return PatternSet(patterns, kind, seed)


# ---------------------------------------------------------------------------
# Files


def _dump(doc: dict) -> str:
    # NaN and the infinities have no JSON form
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write-temp-then-rename so readers never see partial files.

    The temporary file is removed when the write or the rename fails.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path!r}: {exc}") from exc
        raise


def _load(path: str, from_document):
    """Parse the JSON file at ``path``; a DocumentError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DocumentError("", f"not valid JSON: {exc}", path) from exc
    try:
        return from_document(doc)
    except DocumentError as exc:
        raise DocumentError(exc.path, exc.message, path) from None


def save_automaton(a: Automaton, path: str) -> None:
    write_text_atomic(path, _dump(automaton_to_document(a)))


def load_automaton(path: str) -> Automaton:
    return _load(path, automaton_from_document)


def save_pattern_set(ps: PatternSet, path: str) -> None:
    write_text_atomic(path, _dump(pattern_set_to_document(ps)))


def load_pattern_set(path: str) -> PatternSet:
    return _load(path, pattern_set_from_document)


# ---------------------------------------------------------------------------
# Trace export


def render_trace(trace: SimulationTrace) -> str:
    """Line-delimited records: cycle, active count, report list.

    Reports are comma-joined ``state:pattern`` pairs with ``-`` for
    unlabeled states, in the trace's order, ascending by state; the third
    field is empty on report-free cycles.
    """
    by_cycle: dict[int, list[tuple[int, int | None]]] = {}
    for cycle, state, pid in trace.reports:
        by_cycle.setdefault(cycle, []).append((state, pid))
    lines = []
    for t, count in enumerate(trace.per_cycle_count):
        reports = ",".join(
            f"{state}:{'-' if pid is None else pid}"
            for state, pid in by_cycle.get(t, ()))
        lines.append(f"{t}\t{count}\t{reports}")
    return "\n".join(lines) + ("\n" if lines else "")
