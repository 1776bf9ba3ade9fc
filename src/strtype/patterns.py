"""Small regular-expression engine used by the pattern token combinator.

Only a conservative subset of regular-expression syntax is accepted:
literal characters, escaped metacharacters, ``.``, character classes with
ranges and negation, the shorthand classes ``\\d``/``\\w``/``\\s``, groups,
alternation and the repetition operators ``*``, ``+``, ``?`` and ``{n,m}``.
Anything else (backreferences, lookaround, anchors, inline flags) raises
:class:`PatternError` at construction time.

Matching is anchored at a position and returns the longest match there,
which is what a tokenizer wants.  Python's ``re`` module resolves an
alternation by taking the first branch that matches, so it cannot serve
as the engine here. Patterns are compiled to a small NFA instead, and
matching walks a DFA built lazily from it by subset construction, noting
the last position where the state was accepting. A character's class is
found from the pattern's range endpoints, so arbitrary Unicode adds no
states, and a pattern's table of states is flushed once it passes a fixed
size, so memory stays bounded. A state that loops on some classes skips
the run of them with one ``re`` scan; ``re`` only scans a character set
there, so the longest-match semantics are unchanged.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_right
from dataclasses import dataclass


class PatternError(ValueError):
    """Raised when a pattern uses syntax outside the supported subset."""


_DIGIT_RANGES = (("0", "9"),)
_WORD_RANGES = (("0", "9"), ("A", "Z"), ("a", "z"), ("_", "_"))
_SPACE_RANGES = ((" ", " "), ("\t", "\t"), ("\n", "\n"), ("\r", "\r"),
                 ("\x0b", "\x0b"), ("\x0c", "\x0c"))

_MAX_COUNT = 512


@dataclass(frozen=True)
class _Cls:
    """The characters in ``ranges``, or outside them when ``negated``; a
    literal is a one-character class and ``.`` the negated empty one."""
    ranges: tuple[tuple[str, str], ...]
    negated: bool = False


@dataclass(frozen=True)
class _Seq:
    parts: tuple


@dataclass(frozen=True)
class _Alt:
    options: tuple


@dataclass(frozen=True)
class _Rep:
    node: object
    low: int
    high: int | None


class _PatternReader:
    """Recursive-descent parser for the supported pattern syntax."""

    def __init__(self, source: str):
        self.src = source
        self.i = 0

    def error(self, message: str) -> PatternError:
        return PatternError(f"{message} at index {self.i} in pattern {self.src!r}")

    def peek(self) -> str | None:
        return self.src[self.i] if self.i < len(self.src) else None

    def take(self) -> str:
        ch = self.src[self.i]
        self.i += 1
        return ch

    def parse(self):
        node = self.alternation()
        if self.i != len(self.src):
            raise self.error("unbalanced ')'" if self.peek() == ")" else "trailing input")
        return node

    def alternation(self):
        options = [self.sequence()]
        while self.peek() == "|":
            self.take()
            options.append(self.sequence())
        return options[0] if len(options) == 1 else _Alt(tuple(options))

    def sequence(self):
        parts = []
        while self.peek() not in (None, "|", ")"):
            parts.append(self.repeatable())
        if len(parts) == 1:
            return parts[0]
        return _Seq(tuple(parts))

    def repeatable(self):
        node = self.atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                node = _Rep(node, 0, None)
            elif ch == "+":
                self.take()
                node = _Rep(node, 1, None)
            elif ch == "?":
                self.take()
                node = _Rep(node, 0, 1)
            elif ch == "{":
                node = self.counted(node)
            else:
                return node

    def counted(self, node):
        self.take()
        low = self.number()
        high: int | None = low
        if self.peek() == ",":
            self.take()
            high = self.number() if self.peek() != "}" else None
        if self.peek() != "}":
            raise self.error("expected '}'")
        self.take()
        if high is not None and high < low:
            raise self.error("repetition bounds out of order")
        if low > _MAX_COUNT or (high or 0) > _MAX_COUNT:
            raise self.error("repetition bound too large")
        return _Rep(node, low, high)

    def number(self) -> int:
        digits = ""
        while (ch := self.peek()) is not None and ch.isdigit():
            digits += self.take()
        if not digits:
            raise self.error("expected a repetition count")
        return int(digits)

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.take()
            if self.peek() == "?":
                raise self.error("group modifiers are not supported")
            node = self.alternation()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return node
        if ch == "[":
            return self.charclass()
        if ch == ".":
            self.take()
            return _Cls((), negated=True)
        if ch == "\\":
            return self.escape()
        if ch in "*+?{":
            raise self.error("nothing to repeat")
        if ch in ")]|^$":
            raise self.error(f"unsupported use of {ch!r}")
        ch = self.take()
        return _Cls(((ch, ch),))

    def escape(self):
        self.take()
        ch = self.peek()
        if ch is None:
            raise self.error("dangling escape")
        if ch == "d":
            self.take()
            return _Cls(_DIGIT_RANGES)
        if ch == "w":
            self.take()
            return _Cls(_WORD_RANGES)
        if ch == "s":
            self.take()
            return _Cls(_SPACE_RANGES)
        if ch.isdigit():
            raise self.error("backreferences are not supported")
        if ch.isalpha():
            raise self.error(f"unsupported escape '\\{ch}'")
        ch = self.take()
        return _Cls(((ch, ch),))

    def charclass(self):
        self.take()
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        ranges: list[tuple[str, str]] = []
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unterminated character class")
            if ch == "]":
                if not ranges:
                    raise self.error("empty character class")
                self.take()
                return _Cls(tuple(ranges), negated)
            low = self.class_char()
            if self.peek() == "-" and self.src[self.i + 1 : self.i + 2] not in ("]", ""):
                self.take()
                high = self.class_char()
                if high < low:
                    raise self.error("character range out of order")
                ranges.append((low, high))
            else:
                ranges.append((low, low))

    def class_char(self) -> str:
        ch = self.take()
        if ch != "\\":
            return ch
        nxt = self.peek()
        if nxt is None:
            raise self.error("dangling escape")
        if nxt.isalnum():
            raise self.error(f"unsupported escape '\\{nxt}' in character class")
        return self.take()


class _State:
    __slots__ = ("eps", "edges")

    def __init__(self):
        self.eps: list[_State] = []
        self.edges: list[tuple[object, _State]] = []


def _build(node, start: _State) -> _State:
    """Wire ``node`` into the NFA from ``start``, returning its exit state."""
    if isinstance(node, _Cls):
        end = _State()
        start.edges.append((node, end))
        return end
    if isinstance(node, _Seq):
        cur = start
        for part in node.parts:
            cur = _build(part, cur)
        return cur
    if isinstance(node, _Alt):
        end = _State()
        for option in node.options:
            head = _State()
            start.eps.append(head)
            _build(option, head).eps.append(end)
        return end
    if isinstance(node, _Rep):
        cur = start
        for _ in range(node.low):
            cur = _build(node.node, cur)
        if node.high is None:
            loop = _State()
            end = _State()
            cur.eps.append(loop)
            body_end = _build(node.node, loop)
            body_end.eps.append(loop)
            loop.eps.append(end)
            return end
        for _ in range(node.high - node.low):
            nxt = _build(node.node, cur)
            cur.eps.append(nxt)
            cur = nxt
        return cur
    raise AssertionError(f"unknown pattern node {node!r}")


def _edge_matches(label: _Cls, ch: str) -> bool:
    return any(low <= ch <= high for low, high in label.ranges) != label.negated


def _closure(states: set[_State]) -> set[_State]:
    stack = list(states)
    seen = set(states)
    while stack:
        for nxt in stack.pop().eps:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# A pattern's DFA table flushes once it holds more states than this, so a
# pattern whose subset construction explodes still runs in bounded memory.
_MAX_STATES = 10_000
_DEAD = -1
_TOP = 0x10FFFF


def _labels(node) -> set[_Cls]:
    """The character classes that label ``node``'s NFA edges."""
    if isinstance(node, _Cls):
        return {node}
    children = (node.parts if isinstance(node, _Seq)
                else node.options if isinstance(node, _Alt) else (node.node,))
    return set().union(*map(_labels, children))


def _scanner(spans: list[tuple[int, int]]):
    """The ``match`` of a regex consuming a run of characters in ``spans``,
    sorted, disjoint code point ranges.

    sre expands the BMP part of a class one code point at a time, so a set
    holding most of the BMP is written as its negated complement.
    """
    negated = sum(max(0, min(high, 0xFFFF) - low + 1) for low, high in spans) > 0x8000
    if negated:
        edges = [-1] + [c for low, high in spans for c in (low, high)] + [_TOP + 1]
        spans = [(a + 1, b - 1) for a, b in zip(edges[::2], edges[1::2]) if a + 1 < b]
        if not spans:
            return re.compile("(?s:.)*").match
    body = "".join(f"\\U{low:08x}-\\U{high:08x}" for low, high in spans)
    return re.compile(f"[{'^' if negated else ''}{body}]*").match


class _Table:
    """One generation of a pattern's DFA: sets of NFA states interned to
    ints, state 0 the start, each with its accept flag and, once visited,
    its row and run scanner.

    The lists only grow, and a state's scanner is stored before its row,
    so a walker reading without the lock sees a finished state or none.
    """

    def __init__(self, start: frozenset, accept: _State):
        self.accept = accept
        self.ids: dict[frozenset, int] = {}
        self.sets: list[frozenset] = []
        self.accepting: list[bool] = []
        self.rows: list[list[int] | None] = []
        self.skips: list = []
        self.intern(start)

    def intern(self, states: frozenset) -> int:
        sid = self.ids.get(states)
        if sid is None:
            sid = self.ids[states] = len(self.sets)
            self.sets.append(states)
            self.accepting.append(self.accept in states)
            self.rows.append(None)
            self.skips.append(None)
        return sid


class TokenPattern:
    """A compiled pattern that finds the longest match at a given position."""

    def __init__(self, source: str):
        self.source = source
        tree = _PatternReader(source).parse()
        start = _State()
        self._accept = _build(tree, start)
        self._start = frozenset(_closure({start}))
        # Characters between two adjacent cuts meet every label alike, so
        # a character's class is bisect_right(cuts, ord(ch)).
        labels = _labels(tree)
        cuts = {c for label in labels for low, high in label.ranges
                for c in (ord(low), ord(high) + 1)}
        self._cuts = sorted(cuts - {_TOP + 1})
        firsts = [chr(c) for c in [0] + self._cuts]
        self._classes = {label: [k for k, ch in enumerate(firsts) if _edge_matches(label, ch)]
                         for label in labels}
        self._lock = threading.Lock()
        self._table = _Table(self._start, self._accept)

    def _fill(self, table: _Table, sid: int) -> tuple[_Table, int]:
        """Build state ``sid``'s row and run scanner, in ``table`` or, past
        the cap, in a fresh table that replaces it."""
        with self._lock:
            if table.rows[sid] is not None:
                return table, sid
            if len(table.sets) > _MAX_STATES:
                states = table.sets[sid]
                table = self._table = _Table(self._start, self._accept)
                sid = table.intern(states)
            cuts = self._cuts
            moved: list[set[_State]] = [set() for _ in range(len(cuts) + 1)]
            for st in table.sets[sid]:
                for label, tgt in st.edges:
                    for k in self._classes[label]:
                        moved[k].add(tgt)
            row = [table.intern(frozenset(_closure(m))) if m else _DEAD for m in moved]
            loop = [(cuts[k - 1] if k else 0, cuts[k] - 1 if k < len(cuts) else _TOP)
                    for k, tgt in enumerate(row) if tgt == sid]
            table.skips[sid] = _scanner(loop) if loop else None
            table.rows[sid] = row
            return table, sid

    def match_end(self, text: str, pos: int) -> int | None:
        """Return the end of the longest match starting at ``pos``, or None.

        A pattern that accepts the empty string yields ``pos`` itself when
        nothing longer matches.
        """
        table = self._table
        rows, accepting, skips = table.rows, table.accepting, table.skips
        cuts = self._cuts
        sid = 0
        last = pos if accepting[0] else None
        i = pos
        n = len(text)
        while True:
            row = rows[sid]
            if row is None:
                table, sid = self._fill(table, sid)
                rows, accepting, skips = table.rows, table.accepting, table.skips
                row = rows[sid]
            skip = skips[sid]
            if skip is not None:
                i = skip(text, i).end()
                if accepting[sid]:
                    last = i
            if i >= n:
                return last
            sid = row[bisect_right(cuts, ord(text[i]))]
            if sid == _DEAD:
                return last
            i += 1
            if accepting[sid]:
                last = i

    def __repr__(self) -> str:
        return f"TokenPattern({self.source!r})"
