"""Parser combinators over positions in a string.

A parser is a pure function from ``(text, pos)`` to an outcome: either
``Success(value, end)`` where ``end`` is the position after the consumed
input, or ``Failure(pos, expected)`` describing what was expected and where.
Positions are code point indices. Parsers never read past the end of the
text and never report an end beyond ``len(text)``.

Outcomes are built at every step of every parse, so they are plain
slotted records rather than frozen dataclasses, at under half the cost to
build. They compare by value and hash like the dataclasses did, and a
``Success`` never equals a ``Failure``. They are not frozen: nothing stops
an assignment to a field, and callers must treat them as read-only. No
parser in this module changes an outcome after returning it.

Choice is ordered: ``alt`` tries branches in sequence, always from the
position it was started at, and when every branch fails it reports the
failure that progressed furthest (ties are merged with "or"). Repetition is
greedy. A repetition whose body succeeds without consuming anything would
never terminate, so ``many``/``some``/``chain_left`` raise
:class:`NontermError` when they detect that at run time.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from .patterns import PatternError, TokenPattern

__all__ = [
    "Success", "Failure", "Parser", "NontermError", "PatternError",
    "succeed", "satisfy", "one_of", "lit", "pattern", "seq", "alt",
    "many", "some", "times", "chain_left", "spanned", "record", "forward",
    "run_to_end",
]

A = TypeVar("A")
B = TypeVar("B")


class NontermError(RuntimeError):
    """A repetition looped over a parser that consumed no input."""


class _Outcome:
    """Base of the two outcome records: two slots, no per-instance dict.

    Equal only to an outcome of the same class with equal fields; hashed
    and printed by those fields.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({inner})"


class Success(_Outcome, Generic[A]):
    """The parser consumed input up to ``end`` and produced ``value``."""

    __slots__ = ("value", "end")

    def __init__(self, value: A, end: int):
        self.value = value
        self.end = end


class Failure(_Outcome):
    """The parser expected ``expected`` at ``pos``."""

    __slots__ = ("pos", "expected")

    def __init__(self, pos: int, expected: str):
        self.pos = pos
        self.expected = expected


class Parser(Generic[A]):
    """Wraps a parse function ``(text, pos) -> Success | Failure``."""

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable[[str, int], Success | Failure], label: str | None = None):
        self.fn = fn
        self.label = label

    def run(self, text: str, pos: int = 0) -> Success | Failure:
        return self.fn(text, pos)

    def map(self, f: Callable[[A], B]) -> "Parser[B]":
        """Apply ``f`` to the parsed value; acceptance is unchanged."""
        def parse(text, pos):
            out = self.fn(text, pos)
            if isinstance(out, Failure):
                return out
            return Success(f(out.value), out.end)
        return Parser(parse, self.label)

    def bind(self, f: Callable[[A], "Parser[B]"]) -> "Parser[B]":
        """Continue with a parser chosen from the value parsed so far."""
        def parse(text, pos):
            out = self.fn(text, pos)
            if isinstance(out, Failure):
                return out
            return f(out.value).fn(text, out.end)
        return Parser(parse)

    def then(self, other: "Parser[B]") -> "Parser[tuple[A, B]]":
        """Run ``self`` then ``other``, pairing both values."""
        def parse(text, pos):
            first = self.fn(text, pos)
            if isinstance(first, Failure):
                return first
            second = other.fn(text, first.end)
            if isinstance(second, Failure):
                return second
            return Success((first.value, second.value), second.end)
        return Parser(parse)

    def desc(self, label: str) -> "Parser[A]":
        """Report ``label`` instead of inner expectations on failure.

        The outermost label wins when descriptions nest.
        """
        if not label:
            raise ValueError("desc label must be non-empty")
        def parse(text, pos):
            out = self.fn(text, pos)
            if isinstance(out, Failure):
                return Failure(out.pos, label)
            return out
        return Parser(parse, label)

    def fallback(self, default: B) -> "Parser[A | B]":
        """Yield ``default`` without consuming input when ``self`` fails."""
        def parse(text, pos):
            out = self.fn(text, pos)
            if isinstance(out, Failure):
                return Success(default, pos)
            return out
        return Parser(parse, self.label)

    def __or__(self, other: "Parser[B]") -> "Parser[A | B]":
        return alt(self, other)

    def __repr__(self) -> str:
        return f"Parser({self.label})" if self.label else f"Parser at {id(self):#x}"


def succeed(value: A) -> Parser[A]:
    """Always succeed with ``value``, consuming nothing."""
    return Parser(lambda text, pos: Success(value, pos))


def satisfy(pred: Callable[[str], bool], label: str) -> Parser[str]:
    """Consume one character for which ``pred`` holds."""
    def parse(text, pos):
        if pos < len(text) and pred(text[pos]):
            return Success(text[pos], pos + 1)
        return Failure(pos, label)
    return Parser(parse, label)


def one_of(chars: str) -> Parser[str]:
    """Consume one character drawn from ``chars``."""
    if not chars:
        raise ValueError("one_of needs at least one character")
    members = frozenset(chars)
    label = f"one of {chars!r}"
    def parse(text, pos):
        if pos < len(text) and text[pos] in members:
            return Success(text[pos], pos + 1)
        return Failure(pos, label)
    return Parser(parse, label)


def lit(expected: str) -> Parser[str]:
    """Consume exactly the string ``expected``."""
    label = f'"{expected}"'
    def parse(text, pos):
        if text.startswith(expected, pos):
            return Success(expected, pos + len(expected))
        return Failure(pos, label)
    return Parser(parse, label)


def pattern(source: str) -> Parser[str]:
    """Consume the longest match of a pattern at the current position.

    Supports a conservative regular-expression subset (see
    :mod:`strtype.patterns`); unsupported syntax raises
    :class:`PatternError` here, at construction time.
    """
    compiled = TokenPattern(source)
    label = f"/{source}/"
    def parse(text, pos):
        end = compiled.match_end(text, pos)
        if end is None:
            return Failure(pos, label)
        return Success(text[pos:end], end)
    return Parser(parse, label)


def seq(*parsers: Parser) -> Parser[tuple]:
    """Run parsers in order, collecting every value into a tuple."""
    def parse(text, pos):
        values = []
        cur = pos
        for p in parsers:
            out = p.fn(text, cur)
            if isinstance(out, Failure):
                return out
            values.append(out.value)
            cur = out.end
        return Success(tuple(values), cur)
    return Parser(parse)


def alt(*parsers: Parser) -> Parser:
    """Ordered choice. Failed branches backtrack to the original position.

    When every branch fails, the failure that progressed furthest is
    reported; branches that tie have their expectations joined with "or".
    """
    if not parsers:
        raise ValueError("alt needs at least one parser")
    def parse(text, pos):
        best: Failure | None = None
        for p in parsers:
            out = p.fn(text, pos)
            if isinstance(out, Success):
                return out
            if best is None or out.pos > best.pos:
                best = out
            elif out.pos == best.pos and out.expected != best.expected:
                best = Failure(best.pos, f"{best.expected} or {out.expected}")
        return best
    return Parser(parse)


def many(p: Parser[A]) -> Parser[list[A]]:
    """Apply ``p`` zero or more times, greedily."""
    def parse(text, pos):
        values = []
        cur = pos
        while True:
            out = p.fn(text, cur)
            if isinstance(out, Failure):
                return Success(values, cur)
            if out.end == cur:
                raise NontermError(
                    f"repetition body consumed no input at position {cur}")
            values.append(out.value)
            cur = out.end
    return Parser(parse)


def some(p: Parser[A]) -> Parser[list[A]]:
    """Apply ``p`` one or more times, greedily."""
    rest = many(p)
    def parse(text, pos):
        first = p.fn(text, pos)
        if isinstance(first, Failure):
            return first
        if first.end == pos:
            raise NontermError(
                f"repetition body consumed no input at position {pos}")
        more = rest.fn(text, first.end)
        return Success([first.value] + more.value, more.end)
    return Parser(parse)


def times(p: Parser[A], n: int) -> Parser[list[A]]:
    """Apply ``p`` exactly ``n`` times."""
    def parse(text, pos):
        values = []
        cur = pos
        for _ in range(n):
            out = p.fn(text, cur)
            if isinstance(out, Failure):
                return out
            values.append(out.value)
            cur = out.end
        return Success(values, cur)
    return Parser(parse)


def chain_left(operand: Parser[A], operator: Parser[Callable[[A, A], A]]) -> Parser[A]:
    """Parse ``operand (operator operand)*`` folding applications leftward.

    A lone operand's own ``Success`` is returned as it is.
    """
    def parse(text, pos):
        first = operand.fn(text, pos)
        if isinstance(first, Failure):
            return first
        acc = first.value
        cur = first.end
        while True:
            op = operator.fn(text, cur)
            if isinstance(op, Failure):
                break
            nxt = operand.fn(text, op.end)
            if isinstance(nxt, Failure):
                break
            if nxt.end == cur:
                raise NontermError(
                    f"repetition body consumed no input at position {cur}")
            acc = op.value(acc, nxt.value)
            cur = nxt.end
        return first if cur == first.end else Success(acc, cur)
    return Parser(parse)


def spanned(p: Parser[A]) -> Parser[tuple[A, int, int]]:
    """Pair the parsed value with the half-open span it consumed."""
    def parse(text, pos):
        out = p.fn(text, pos)
        if isinstance(out, Failure):
            return out
        return Success((out.value, pos, out.end), out.end)
    return Parser(parse)


def record(cls: Callable[..., A], *parts) -> Parser[tuple[A, dict]]:
    """Run ``parts`` in order and build ``cls`` from the named ones.

    A part is a bare parser, whose value is dropped, or a ``(field,
    parser)`` pair. The value is ``(cls(**fields), spans)``, where
    ``spans`` maps each field to the half-open span its parser consumed:
    the pair a type's recognizer yields. Fails as ``seq`` over the same
    parsers does.
    """
    steps = [(None, part) if isinstance(part, Parser) else part for part in parts]
    def parse(text, pos):
        fields = {}
        spans = {}
        cur = pos
        for name, p in steps:
            out = p.fn(text, cur)
            if isinstance(out, Failure):
                return out
            if name is not None:
                fields[name] = out.value
                spans[name] = (cur, out.end)
            cur = out.end
        return Success((cls(**fields), spans), cur)
    return Parser(parse)


class _Forward(Parser):
    """Placeholder for a parser defined later, enabling recursive grammars."""

    __slots__ = ("_target",)

    def __init__(self):
        self._target: Parser | None = None
        def parse(text, pos):
            if self._target is None:
                raise RuntimeError("forward parser used before define()")
            return self._target.fn(text, pos)
        super().__init__(parse)

    def define(self, target: Parser) -> None:
        if self._target is not None:
            raise RuntimeError("forward parser already defined")
        self._target = target
        # Callers read ``fn`` at every call, so from here on they call the
        # target's function directly, one call fewer per use. An undefined
        # forward's function already looks its target up when called.
        self.fn = target.fn


def forward() -> _Forward:
    """Create a parser that can be defined after being referenced."""
    return _Forward()


def run_to_end(p: Parser[A], text: str) -> Success | Failure:
    """Run ``p`` from the start and require it to consume all of ``text``."""
    out = p.fn(text, 0)
    if isinstance(out, Failure):
        return out
    if out.end != len(text):
        return Failure(out.end, "end of input")
    return out
