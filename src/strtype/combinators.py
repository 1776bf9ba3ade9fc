"""Parser combinators over positions in a string.

A parser is a pure function from ``(text, pos)`` to an outcome: either
``Success(value, end)`` where ``end`` is the position after the consumed
input, or ``Failure(pos, expected)`` describing what was expected and where.
Positions are code point indices. Parsers never read past the end of the
text and never report an end beyond ``len(text)``.

Outcomes are built at every step of every parse, so they are the
package's plain records (``patterns.Record``), whose constructors assign
their slots directly, not its frozen ones, which pay for an
``object.__setattr__`` call per field. They compare by value, hash and print by their
fields, and a ``Success`` never equals a ``Failure``. Nothing stops an
assignment to a field, so callers must treat them as read-only. No parser
in this module changes an outcome after returning it.

Choice is ordered: ``alt`` tries branches in sequence, always from the
position it was started at, and when every branch fails it reports the
failure that progressed furthest (ties are merged with "or"). Repetition is
greedy. A repetition whose body succeeds without consuming anything would
never terminate, so ``many`` raises :class:`NontermError` when it detects
that at run time. ``some``, ``times`` and ``chain_left`` are built from
``seq`` and ``many``, so ``many`` detects it for them too.

A token (``lit``, ``one_of``, ``pattern``) is its choices, ``trees``, a
tuple of ``TokenPattern``s, an optional ``conv`` of the consumed text, and
its label. One rule holds: inside a pattern the longest match wins, and
across a token's choices, as across ``alt``, the first choice that
matches. So a token fails only at its start, with its label. A ``lit`` is
the pattern of its escaped characters, a ``one_of`` the class of them;
``map``, ``desc``, an ``alt`` of tokens with no ``conv`` (their choices in
order) and ``fallback("")`` (one more, empty, choice) over tokens are
tokens too; ``satisfy`` is not. ``check_to_end`` runs only their patterns,
and those of an ``alt`` of tokens that convert their text.

When every part of a ``record`` is a token and no pattern among them
walks the DFA, the record parses with one ``re`` match
(``patterns.sequence_match``), compiled at its first parse; any other
record runs its parts' parse functions in turn. Both give the same
outcome, since a token fails only at its start, with its label. Its
whole-string entry, ``whole``, reads the pair off that match and checks
the end itself, with no ``Success`` built.

A token prints too: ``render``, a format spec (``""`` if it does not
convert) or a function that ``map(f, render)`` declares, gives its text
back; a hand-written parser may set its own, with a ``conv`` that reads
its text back. A ``record`` of such parts prints: ``render`` gives a
structure's text and ``layout`` the text and each field's span. So does
an ``alt`` of records, with the first branch whose fields are all set.
"""

from __future__ import annotations

from functools import reduce
from keyword import iskeyword
from operator import attrgetter
from typing import Callable, Generic, TypeVar

from .patterns import PatternError, Record, TokenPattern, sequence_match

__all__ = [
    "Success", "Failure", "Parser", "NontermError", "PatternError",
    "succeed", "satisfy", "one_of", "lit", "pattern", "seq", "alt",
    "many", "some", "times", "chain_left", "spanned", "record", "forward",
    "run_to_end", "check_to_end",
]

A = TypeVar("A")
B = TypeVar("B")


class NontermError(RuntimeError):
    """A repetition looped over a parser that consumed no input."""


class Success(Record, Generic[A]):
    """The parser consumed input up to ``end`` and produced ``value``."""

    __slots__ = ("value", "end")

    def __init__(self, value: A, end: int):
        self.value = value
        self.end = end


class Failure(Record):
    """The parser expected ``expected`` at ``pos``."""

    __slots__ = ("pos", "expected")

    def __init__(self, pos: int, expected: str):
        self.pos = pos
        self.expected = expected


class Parser(Generic[A]):
    """Wraps a parse function ``(text, pos) -> Success | Failure``.

    ``parts`` maps field names to the parsers that consume them: a
    ``record``'s named parts, merged by ``alt``; empty for other parsers.
    A token also has its choices, ``trees``, tried in order, each taking
    its longest match, and ``conv`` (see the module docstring), and a
    ``record`` its whole-string entry ``whole``, and an ``alt`` of tokens
    that convert its ``token`` (see ``alt``); any other parser has them None.
    ``render`` and ``layout`` print (see the module docstring).
    """

    __slots__ = ("fn", "label", "parts", "conv", "trees", "whole", "token", "render", "layout")

    def __init__(self, fn: Callable[[str, int], Success | Failure], label: str | None = None):
        self.fn = fn
        self.label = label
        self.parts = {}
        self.conv = self.trees = self.whole = self.token = self.render = self.layout = None

    def run(self, text: str, pos: int = 0) -> Success | Failure:
        return self.fn(text, pos)

    def map(self, f: Callable[[A], B], render: str | Callable[[B], str] | None = None) -> "Parser[B]":
        """Apply ``f`` to the parsed value; acceptance is unchanged. A token's
        ``render``, if given, turns a value of the result back into its text."""
        if self.trees is not None:
            conv = self.conv
            return _token(self.trees, self.label,
                          f if conv is None else lambda text: f(conv(text)), render)
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

    def desc(self, label: str) -> "Parser[A]":
        """Report ``label`` instead of inner expectations on failure.

        The outermost label wins when descriptions nest.
        """
        if not label:
            raise ValueError("desc label must be non-empty")
        if self.trees is not None:
            return _token(self.trees, label, self.conv, self.render)
        def parse(text, pos):
            out = self.fn(text, pos)
            if isinstance(out, Failure):
                return Failure(out.pos, label)
            return out
        return Parser(parse, label)

    def fallback(self, default: B) -> "Parser[A | B]":
        """Yield ``default`` without consuming input when ``self`` fails."""
        if self.trees is not None and self.conv is None and default == "":
            # The default is the empty text at ``pos``: a last choice.
            return _token((*self.trees, TokenPattern("")), self.label)
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


def _token(trees: tuple, label: str, conv: Callable[[str], A] | None = None,
           render: str | Callable[[A], str] | None = None) -> Parser[A]:
    """The token of ``label``, ``conv`` and ``render`` whose choices, ``trees``,
    are tried in order: the first that matches takes its longest match."""
    def parse(text, pos):
        for tree in trees:
            # Looked up at each call, so a wrapper set on the class sees it.
            end = tree.match_end(text, pos)
            if end is not None:
                value = text[pos:end]
                return Success(value if conv is None else conv(value), end)
        return Failure(pos, label)
    out = Parser(parse, label)
    out.conv = conv
    out.trees = trees
    out.render = "" if conv is None else render
    return out


def _first(printers: list, slot: str):
    """The ``slot`` printer of the first of ``printers`` (records) whose fields
    are all set (not None) in a structure, else of the last."""
    # Each name twice, so that one field's attrgetter gives a tuple too.
    tries = [(attrgetter(*p.parts, *p.parts), getattr(p, slot)) for p in printers[:-1]]
    last = getattr(printers[-1], slot)
    def first(structure):
        for fields, printer in tries:
            if None not in fields(structure):
                return printer(structure)
        return last(structure)
    return first


def _escaped(chars: str) -> str:
    """Pattern source for ``chars`` as literals: all but ASCII letters and
    digits escaped, in and out of a class alike."""
    return "".join(c if c.isascii() and c.isalnum() else "\\" + c for c in chars)


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
    return _token((TokenPattern(f"[{_escaped(chars)}]"),), f"one of {chars!r}")


def lit(expected: str) -> Parser[str]:
    """Consume exactly the string ``expected``."""
    return _token((TokenPattern(_escaped(expected)),), f'"{expected}"')


def pattern(source: str) -> Parser[str]:
    """Consume the longest match of a pattern at the current position.

    Supports a conservative regular-expression subset (see
    :mod:`strtype.patterns`); unsupported syntax raises
    :class:`PatternError` here, at construction time.
    """
    return _token((TokenPattern(source),), f"/{source}/")


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
    When every branch has parts, a field's part is the ``alt`` of the
    branches' parts for it, or the one branch's part if only one has it.
    An ``alt`` of tokens with no ``conv`` is the token of their choices in
    order, each still taking its longest match, labelled as it fails; one
    of tokens that convert keeps that token, for ``check_to_end``, as ``token``.
    An ``alt`` of records prints with the first whose fields are all set
    (not None) in the structure, else with the last.
    """
    if not parsers:
        raise ValueError("alt needs at least one parser")
    token = None
    if all(p.trees is not None for p in parsers):
        token = _token(tuple(tree for p in parsers for tree in p.trees),
                       reduce(lambda a, b: a if b == a else f"{a} or {b}", [p.label for p in parsers]))
        if all(p.conv is None for p in parsers):
            return token
    merged: dict[str, list[Parser]] = {}
    if all(p.parts for p in parsers):
        for p in parsers:
            for name, part in p.parts.items():
                merged.setdefault(name, []).append(part)
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
    out = Parser(parse)
    out.parts = {name: ps[0] if len(ps) == 1 else alt(*ps) for name, ps in merged.items()}
    out.token = token
    printers = [p for p in parsers if p.layout is not None]
    if len(printers) == 1:
        out.render, out.layout = printers[0].render, printers[0].layout
    elif printers:
        out.render, out.layout = _first(printers, "render"), _first(printers, "layout")
    return out


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
    return seq(p, many(p)).map(lambda v: [v[0], *v[1]])


def times(p: Parser[A], n: int) -> Parser[list[A]]:
    """Apply ``p`` exactly ``n`` times."""
    return seq(*[p] * n).map(list)


def chain_left(operand: Parser[A], operator: Parser[Callable[[A, A], A]]) -> Parser[A]:
    """Parse ``operand (operator operand)*`` folding applications leftward."""
    return seq(operand, many(seq(operator, operand))).map(
        lambda v: reduce(lambda acc, step: step[0](acc, step[1]), v[1], v[0]))


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
    parser)`` pair. The value is ``(cls(...), spans)``, where ``spans``
    maps each field to the half-open span its parser consumed: the pair a
    type's recognizer yields. ``cls`` takes the fields positionally if
    they are its ``_field_names`` in order, else by keyword. A field named
    twice raises ``ValueError``. Fails as ``seq`` over the same parsers
    does. When every part is a token and no pattern among them walks the
    DFA, the parse is one ``re`` match (see the module docstring). The
    returned parser's ``parts`` are the named pairs, and ``whole(text)``
    is ``run_to_end``'s value or failure, read off that match if any.
    Its ``render`` and ``layout`` read each field off the structure by name,
    and ``layout`` reads each field's text back with its part's ``conv``.
    """
    named = [(None, part) if isinstance(part, Parser) else part for part in parts]
    names = tuple(name for name, _ in named if name is not None)
    twice = next((name for name in names if names.count(name) > 1), None)
    if twice is not None:
        raise ValueError(f"record field {twice!r} is named twice")
    make = cls if getattr(cls, "_field_names", None) == names else (
        lambda *values: cls(**dict(zip(names, values))))
    steps = [(name, p.fn) for name, p in named]
    trees = [p.trees for _, p in named]
    labels = [p.label for _, p in named]
    # Part i of the single match ends where group i + 1 is.
    groups = [(i, name, p.conv) for i, (name, p) in enumerate(named) if name is not None]
    def compile_match(text, pos):
        nonlocal match
        match = sequence_match(trees) or False
        return match and match(text, pos)
    # Compiled at the first parse: then the single match, or False.
    match = compile_match if all(choices is not None for choices in trees) else False
    def read(text, found, pos):
        """The pair from the single match ``found``, or where it stopped."""
        taken = found.lastindex or 0
        if taken < len(labels):
            return Failure(found.end(), labels[taken])
        values = []
        spans = {}
        for i, name, conv in groups:
            start = found.end(i) if i else pos
            end = found.end(i + 1)
            value = text[start:end]
            values.append(value if conv is None else conv(value))
            spans[name] = (start, end)
        return make(*values), spans
    def parse(text, pos):
        found = match and match(text, pos)
        if found:
            out = read(text, found, pos)
            return out if isinstance(out, Failure) else Success(out, found.end())
        values = []
        spans = {}
        cur = pos
        for name, fn in steps:
            out = fn(text, cur)
            if isinstance(out, Failure):
                return out
            if name is not None:
                values.append(out.value)
                spans[name] = (cur, out.end)
            cur = out.end
        return Success((make(*values), spans), cur)
    def whole(text):
        found = match and match(text, 0)
        if not found:
            out = run_to_end(recognizer, text)
            return out if isinstance(out, Failure) else out.value
        if found.end() < len(text) and (found.lastindex or 0) == len(labels):
            return Failure(found.end(), "end of input")
        return read(text, found, 0)
    recognizer = Parser(parse)
    recognizer.parts = {name: p for name, p in named if name is not None}
    recognizer.whole = whole
    recognizer.render, recognizer.layout = _printer(named)
    return recognizer


def _printer(named: list) -> tuple:
    """A record's ``render`` and ``layout``, or Nones if a part cannot print.
    Both are compiled to f-strings at the first print, not at import, which
    would slow every start."""
    for name, p in named:
        if name is None:  # a lit, or a token whose first choice is one
            if not p.trees or p.trees[0].literal() is None:
                return None, None
        elif p.render is None or p.layout is not None or not name.isidentifier() or iskeyword(name):
            return None, None  # a record's value is a pair, and a field an attribute
    env = {}
    def compiled(name):
        def call(structure):
            fn = env.get(name)
            if fn is None:
                exec(_source(named, env), env)
                fn = env[name]
            return fn(structure)
        return call
    return compiled("render"), compiled("layout")


def _source(named: list, env: dict) -> str:
    """The source of a printing record's ``render`` and ``layout``, over the
    literals, renders and convs it puts in ``env``."""
    pieces, body, reads, spans, end = [], [], [], [], "0"  # end: where the text so far ends
    for i, (name, p) in enumerate(named):
        if name is None:
            env[f"r{i}"] = literal = p.trees[0].literal()
            pieces.append((f"{{r{i}}}",) * 2)
            end += f" + {len(literal)}"
            continue
        env[f"r{i}"], env[f"c{i}"] = p.render, p.conv
        if callable(p.render):  # the f-string field that prints "{}"
            field = "{{r%d({})}}" % i
        else:  # a plain format spec is written in
            spec = p.render.isalnum() and ":" + p.render or p.render and ":{{r%d}}" % i
            field = "{{{}%s}}" % spec
        pieces.append((field.format(f"s.{name}"), f"{{t{i}}}"))
        body.append(f"v{i} = s.{name}; t{i} = f'{field.format(f'v{i}')}'; a{i} = {end}")
        reads.append(f"c{i}(t{i}) != v{i}" if p.conv else f"t{i} != v{i}")
        end = f"a{i} + len(t{i})"
        spans.append(f"{name!r}: (a{i}, {end})")
    render, texts = map("".join, zip(*pieces)) if pieces else ("", "")
    return f"""def render(s):
    return f'{render}'
def layout(s):
    {"; ".join(body)}
    if {" or ".join(reads) or "False"}:
        raise ValueError("a field prints as text that reads back as another value")
    return f'{texts}', {{{", ".join(spans)}}}"""


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


def check_to_end(p: Parser, text: str) -> Failure | None:
    """``run_to_end``'s failure, or None. A token, or an ``alt`` of tokens
    that convert, runs only the patterns, in order: the first that matches
    decides, with its longest match."""
    token = p if p.trees is not None else p.token
    if token is None:
        out = run_to_end(p, text)
        return out if isinstance(out, Failure) else None
    for tree in token.trees:
        if (end := tree.match_end(text, 0)) is not None:
            return None if end == len(text) else Failure(end, "end of input")
    return Failure(0, token.label)
