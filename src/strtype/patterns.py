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
as the engine here; patterns are compiled to a small NFA instead and
simulated breadth-first, tracking the last position where an accepting
state was alive.
"""

from __future__ import annotations

from dataclasses import dataclass


class PatternError(ValueError):
    """Raised when a pattern uses syntax outside the supported subset."""


_METACHARS = set("\\.*+?()[]{}|^$/- ")

_DIGIT_RANGES = (("0", "9"),)
_WORD_RANGES = (("0", "9"), ("A", "Z"), ("a", "z"), ("_", "_"))
_SPACE_RANGES = ((" ", " "), ("\t", "\t"), ("\n", "\n"), ("\r", "\r"),
                 ("\x0b", "\x0b"), ("\x0c", "\x0c"))

_MAX_COUNT = 512


@dataclass(frozen=True)
class _Lit:
    char: str


@dataclass(frozen=True)
class _Any:
    pass


@dataclass(frozen=True)
class _Cls:
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
            return _Any()
        if ch == "\\":
            return self.escape()
        if ch in "*+?{":
            raise self.error("nothing to repeat")
        if ch in ")]|^$":
            raise self.error(f"unsupported use of {ch!r}")
        return _Lit(self.take())

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
        return _Lit(self.take())

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
    if isinstance(node, (_Lit, _Any, _Cls)):
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


def _edge_matches(label, ch: str) -> bool:
    if isinstance(label, _Lit):
        return ch == label.char
    if isinstance(label, _Any):
        return True
    hit = any(low <= ch <= high for low, high in label.ranges)
    return hit != label.negated


def _closure(states: set[_State]) -> set[_State]:
    stack = list(states)
    seen = set(states)
    while stack:
        for nxt in stack.pop().eps:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class TokenPattern:
    """A compiled pattern that finds the longest match at a given position."""

    def __init__(self, source: str):
        self.source = source
        start = _State()
        self._accept = _build(_PatternReader(source).parse(), start)
        self._start = _closure({start})

    def match_end(self, text: str, pos: int) -> int | None:
        """Return the end of the longest match starting at ``pos``, or None.

        A pattern that accepts the empty string yields ``pos`` itself when
        nothing longer matches.
        """
        current = self._start
        accept = self._accept
        last = pos if accept in current else None
        i = pos
        n = len(text)
        while i < n and current:
            ch = text[i]
            moved = {tgt for st in current for label, tgt in st.edges
                     if _edge_matches(label, ch)}
            if not moved:
                break
            current = _closure(moved)
            i += 1
            if accept in current:
                last = i
        return last

    def __repr__(self) -> str:
        return f"TokenPattern({self.source!r})"
