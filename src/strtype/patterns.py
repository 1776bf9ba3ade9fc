"""Small regular-expression engine used by the pattern token combinator.

Only a conservative subset of regular-expression syntax is accepted:
literal characters, escaped metacharacters and non-ASCII characters,
``.``, character classes with ranges and negation, the shorthand classes
``\\d``/``\\w``/``\\s``, groups, alternation and the repetition operators
``*``, ``+``, ``?`` and ``{n,m}``.
Anything else (backreferences, lookaround, anchors, inline flags) raises
:class:`PatternError` at construction time.

Matching is anchored at a position and returns the longest match there,
which is what a tokenizer wants. The shorthand classes ``\\d``, ``\\w``
and ``\\s`` are ASCII. The reader writes every character class once, as
sorted code point spans with negation and ``.`` already applied, and
everything below reads those spans. Python's ``re`` module takes the
first match its backtracking finds, not the longest, and may backtrack
exponentially, so a pattern is compiled to a small NFA, and its first
match chooses the engine once. When the NFA is unambiguous, so that a
text fixes at most one path through it, the pattern is translated to
``re`` source with every class written as explicit code points, and
one ``re`` call finds the longest match in linear time (see
:meth:`TokenPattern._choose`). A bounded repeat ``X{1,3}`` is wired as
``X(X(X)?)?``, not ``XX?X?``, so that a text fixes how many copies of
``X`` it takes. Any other pattern walks a DFA built lazily from the NFA
by subset construction, noting the last position where the state was
accepting. A character's class is found from the spans' endpoints, so
arbitrary Unicode adds no states, and a pattern's table of states is
flushed once it passes a fixed size, so memory stays bounded. A state
that loops on some classes skips the run of them with one ``re`` scan;
``re`` only scans a character set there, so the longest-match semantics
are unchanged.

A token of :mod:`strtype.combinators` is :class:`TokenPattern` choices,
tried in order. A sequence of tokens, as a ``record`` of them has, is
matched by one regex too: :func:`sequence_match` writes each choice's tree
as above, a token as ``(?:A|B)``, and nests the tokens in optional groups,
so that one ``re`` call finds how many of them match in a row and where
each ends. It answers None when a pattern among them walks the DFA.

This module also holds :class:`Record` and :class:`FrozenRecord`, the
slotted base of every record in the package, and :class:`Structure`, the
base of the structures a type's grammar builds, because every other module
imports this one first. They are written by hand, not generated by
``@dataclass``, which keeps class creation, and so import, cheap: no module
imports :mod:`dataclasses` at import. A structure still answers
``dataclasses.fields`` and ``dataclasses.replace``, and the first such call
imports it.
"""

from __future__ import annotations

import _thread
import re
from bisect import bisect_right
from operator import attrgetter


class Record:
    """Base of the package's records: fields in slots, no per-instance dict.

    A subclass names its fields, in order, in its own ``__slots__``; they
    become its ``_field_names``, which its subclasses inherit, and its
    ``__match_args__`` unless it sets those itself. A record is
    equal only to a record of the same class with equal fields, and hashes,
    prints as ``Name(field=value, ...)``, copies and pickles by them.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if names:
            cls._field_names = names
            if "__match_args__" not in cls.__dict__:
                cls.__match_args__ = names
            # The tuple of field values, read in one C call; a generator
            # over the names makes hashing and comparing about 4x slower.
            get = attrgetter(*names)
            cls._fields = property(get if len(names) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return _rebuild, (type(self), self._fields)


# Records are built on every parse: a module global is read faster than
# the builtin ``object`` and its attribute.
_set = object.__setattr__


def _setters(cls: type) -> list:
    """The setter of each of ``cls``'s own slots, in order: a call that
    stores into the slot, frozen or not, without ``_set``'s name lookup."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


def _rebuild(cls: type, values: tuple) -> Record:
    """A ``cls`` record with ``values`` in its slots, its constructor unrun."""
    record = object.__new__(cls)
    for name, value in zip(cls._field_names, values):
        _set(record, name, value)
    return record


class FrozenRecord(Record):
    """A record whose fields cannot be assigned or deleted once set; its
    constructor sets them with ``object.__setattr__``. Either attempt raises
    ``dataclasses.FrozenInstanceError``, as a frozen dataclass does."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _DataclassFields:
    """``__dataclass_fields__`` of a structure class, made on first read from
    a dataclass with the same fields, typed as its ``__init__`` annotates
    them, and then cached on that class."""

    def __get__(self, instance, owner):
        names = owner._field_names  # the bare base has none, so no fields
        from dataclasses import make_dataclass
        hints = owner.__init__.__annotations__
        fields = make_dataclass(owner.__name__, [
            (name, hints.get(name, "typing.Any")) for name in names]).__dataclass_fields__
        owner.__dataclass_fields__ = fields
        return fields


class Structure(FrozenRecord):
    """Base of the structures a type's grammar builds: a frozen record that
    ``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass``
    accept, and that ``copy.replace`` (Python 3.13) accepts too. A subclass
    names its fields in ``__slots__`` and takes them, positionally or by
    keyword, in its ``__init__``."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __replace__(self, **changes):
        """A copy with the named fields changed."""
        for name in self._field_names:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)


class PatternError(ValueError):
    """Raised when a pattern uses syntax outside the supported subset."""


_TOP = 0x10FFFF
_DIGITS = ((0x30, 0x39),)
_WORD = ((0x30, 0x39), (0x41, 0x5A), (0x5F, 0x5F), (0x61, 0x7A))
_SPACE = ((0x09, 0x0D), (0x20, 0x20))
_ANY = ((0, _TOP),)

_MAX_COUNT = 512


def _complement(spans) -> list[tuple[int, int]]:
    """The code points outside ``spans``, sorted, disjoint ranges."""
    edges = [-1] + [c for low, high in spans for c in (low, high)] + [_TOP + 1]
    return [(a + 1, b - 1) for a, b in zip(edges[::2], edges[1::2]) if a + 1 < b]


def _merged(ranges) -> list[tuple[int, int]]:
    """Code point ``ranges`` as sorted, disjoint, non-adjacent spans."""
    spans: list[tuple[int, int]] = []
    for low, high in sorted(ranges):
        if spans and low <= spans[-1][1] + 1:
            spans[-1] = (spans[-1][0], max(high, spans[-1][1]))
        else:
            spans.append((low, high))
    return spans


class _Cls(FrozenRecord):
    """One character from ``spans``: sorted, disjoint, non-adjacent code
    point ranges. A literal is a one-point class, ``.`` the class of every
    code point, and a negated class holds its complement."""

    __slots__ = ("spans",)

    def __init__(self, spans: tuple[tuple[int, int], ...]):
        _set(self, "spans", spans)


class _Seq(FrozenRecord):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)


class _Alt(FrozenRecord):
    __slots__ = ("options",)

    def __init__(self, options: tuple):
        _set(self, "options", options)


class _Rep(FrozenRecord):
    __slots__ = ("node", "low", "high")

    def __init__(self, node: object, low: int, high: int | None):
        _set(self, "node", node)
        _set(self, "low", low)
        _set(self, "high", high)


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
        while (ch := self.peek()) is not None and "0" <= ch <= "9":
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
            return _Cls(_ANY)
        if ch == "\\":
            return self.escape()
        if ch in "*+?{":
            raise self.error("nothing to repeat")
        if ch in ")]|^$":
            raise self.error(f"unsupported use of {ch!r}")
        code = ord(self.take())
        return _Cls(((code, code),))

    def escape(self):
        self.take()
        ch = self.peek()
        if ch is None:
            raise self.error("dangling escape")
        shorthand = {"d": _DIGITS, "w": _WORD, "s": _SPACE}.get(ch)
        if shorthand:
            self.take()
            return _Cls(shorthand)
        if "0" <= ch <= "9":
            raise self.error("backreferences are not supported")
        if ch.isascii() and ch.isalpha():
            raise self.error(f"unsupported escape '\\{ch}'")
        code = ord(self.take())
        return _Cls(((code, code),))

    def charclass(self):
        self.take()
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        ranges: list[tuple[int, int]] = []
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unterminated character class")
            if ch == "]":
                if not ranges:
                    raise self.error("empty character class")
                self.take()
                break
            low = high = self.class_char()
            if self.peek() == "-" and self.src[self.i + 1 : self.i + 2] not in ("]", ""):
                self.take()
                high = self.class_char()
                if high < low:
                    raise self.error("character range out of order")
            ranges.append((low, high))
        spans = _merged(ranges)
        return _Cls(tuple(_complement(spans) if negated else spans))

    def class_char(self) -> int:
        ch = self.take()
        if ch != "\\":
            return ord(ch)
        nxt = self.peek()
        if nxt is None:
            raise self.error("dangling escape")
        if nxt.isascii() and nxt.isalnum():
            raise self.error(f"unsupported escape '\\{nxt}' in character class")
        return ord(self.take())


class _State:
    __slots__ = ("eps", "edges")

    def __init__(self):
        self.eps: list[_State] = []
        self.edges: list[tuple[object, _State]] = []


def _build(node, start: _State, labels: set[_Cls]) -> _State:
    """Wire ``node`` into the NFA from ``start``, adding the classes on its
    edges to ``labels``, and return its exit state."""
    if isinstance(node, _Cls):
        end = _State()
        start.edges.append((node, end))
        labels.add(node)
        return end
    if isinstance(node, _Seq):
        cur = start
        for part in node.parts:
            cur = _build(part, cur, labels)
        return cur
    if isinstance(node, _Alt):
        end = _State()
        for option in node.options:
            head = _State()
            start.eps.append(head)
            _build(option, head, labels).eps.append(end)
        return end
    if isinstance(node, _Rep):
        cur = start
        for _ in range(node.low):
            cur = _build(node.node, cur, labels)
        end = _State()
        if node.high is None:
            loop = _State()
            cur.eps.append(loop)
            _build(node.node, loop, labels).eps.append(loop)
            loop.eps.append(end)
            return end
        # X{1,3} is X(X(X)?)?, not XX?X?: before each optional copy the
        # path may leave for the one exit, so a text fixes the copies taken.
        for _ in range(node.high - node.low):
            cur.eps.append(end)
            cur = _build(node.node, cur, labels)
        cur.eps.append(end)
        return end
    raise AssertionError(f"unknown pattern node {node!r}")


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
# The unambiguity check answers no once it has visited this many NFA
# states, so a pattern with a large NFA walks the DFA.
_MAX_CHECKED = 1_000
_DEAD = -1


def _charset(spans) -> str:
    """``re`` source, for use under ``re.DOTALL``, matching one character
    in ``spans``, sorted, disjoint code point ranges.

    Every range is written as explicit code points, never as a shorthand
    class, which ``re`` reads as Unicode. sre expands the BMP part of a
    class one code point at a time, so a set holding most of the BMP, which
    would take milliseconds to compile, is written as its negated
    complement. A lone point is written bare, ``\\Uxxxxxxxx`` or
    ``[^\\Uxxxxxxxx]``, which sre runs in its LITERAL and NOT_LITERAL loops,
    several times faster over a long run than a one-range set.
    """
    negated = not spans or sum(max(0, min(high, 0xFFFF) - low + 1)
                               for low, high in spans) > 0x8000
    if negated:
        spans = _complement(spans)
        if not spans:
            return "."
    if len(spans) == 1 and spans[0][0] == spans[0][1]:
        return f"[^\\U{spans[0][0]:08x}]" if negated else f"\\U{spans[0][0]:08x}"
    body = "".join(f"\\U{low:08x}-\\U{high:08x}" for low, high in spans)
    return f"[{'^' if negated else ''}{body}]"


def _nullable(node) -> bool:
    """Whether ``node`` matches the empty string."""
    if isinstance(node, _Cls):
        return False
    if isinstance(node, _Seq):
        return all(map(_nullable, node.parts))
    if isinstance(node, _Alt):
        return any(map(_nullable, node.options))
    return node.low == 0 or _nullable(node.node)


def _regex_source(node) -> str:
    """``re`` source for ``node``, for use under ``re.DOTALL``.

    In an unambiguous pattern at most one option of an alternation is
    nullable; it goes last, so that, as at every other choice, ``re``
    tries each option that must consume a character before the one that
    may stop.
    """
    if isinstance(node, _Cls):
        return _charset(node.spans)
    if isinstance(node, _Seq):
        return "".join(map(_regex_source, node.parts))
    if isinstance(node, _Alt):
        return f"(?:{'|'.join(map(_regex_source, sorted(node.options, key=_nullable)))})"
    body = _regex_source(node.node)
    if not isinstance(node.node, _Cls):
        body = f"(?:{body})"
    return f"{body}{{{node.low},{'' if node.high is None else node.high}}}"


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
    """A compiled pattern that finds the longest match at a given position.

    Construction only reads the source, so a bad one raises there. The
    NFA is built at the first :meth:`plain_tree`, which the first match
    calls to choose between ``re`` and the lazy DFA.
    """

    def __init__(self, source: str):
        self.source = source
        self._tree = _PatternReader(source).parse()
        # None until the first match chooses the engine: then the compiled
        # regex's match, or False for the DFA.
        self._match = None
        # None until asked: then whether the NFA is unambiguous.
        self._is_plain = None
        self._lock = _thread.allocate_lock()

    def _build_nfa(self) -> None:
        """Build the NFA, its class cuts and the first DFA table."""
        start = _State()
        labels: set[_Cls] = set()
        self._nfa = start
        self._accept = _build(self._tree, start, labels)
        self._start = frozenset(_closure({start}))
        # Characters between two adjacent cuts meet every label alike, so
        # a character's class is bisect_right(cuts, ord(ch)), and a span
        # covers the classes of its two ends and those between.
        cuts = {c for label in labels for low, high in label.spans for c in (low, high + 1)}
        self._cuts = cuts = sorted(cuts - {0, _TOP + 1})
        self._classes = {label: [k for low, high in label.spans
                                 for k in range(bisect_right(cuts, low),
                                                bisect_right(cuts, high) + 1)]
                         for label in labels}
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
            table.skips[sid] = (re.compile(_charset(loop) + "*", re.DOTALL).match
                                if loop else None)
            table.rows[sid] = row
            return table, sid

    def _unambiguous(self) -> bool:
        """Whether every text fixes at most one path through the NFA.

        It does when the start state, and every state a consuming step
        reaches, has an epsilon closure that is a tree (no state reached
        twice, so no epsilon cycle) and no character leaves that closure
        on two edges. Past ``_MAX_CHECKED`` visited states the answer is no.
        """
        todo, reached, budget = [self._nfa], {self._nfa}, _MAX_CHECKED
        while todo:
            stack, seen, taken = [todo.pop()], set(), set()
            while stack:
                state = stack.pop()
                budget -= 1
                if state in seen or budget < 0:
                    return False
                seen.add(state)
                stack.extend(state.eps)
                for label, target in state.edges:
                    classes = self._classes[label]
                    if not taken.isdisjoint(classes):
                        return False
                    taken.update(classes)
                    if target not in reached:
                        reached.add(target)
                        todo.append(target)
        return True

    def plain_tree(self):
        """The pattern's tree if ``re`` finds its longest match, else None.

        ``re`` does when the NFA is unambiguous. There the text fixes one
        NFA path. At each choice ``re`` tries the options that must consume
        a character before the one that may stop, and a stop succeeds only
        at an accepting point, so its first success is the longest match;
        each choice point is retried at most once, so the time is linear.
        The first call builds the NFA and runs the check, and compiles no
        regex.
        """
        if self._is_plain is None:
            with self._lock:
                if self._is_plain is None:
                    self._build_nfa()
                    self._is_plain = self._unambiguous()
        return self._tree if self._is_plain else None

    def literal(self) -> str | None:
        """The one text the pattern matches if it is a run of single
        characters, as a ``lit``'s is, else None."""
        nodes = self._tree.parts if isinstance(self._tree, _Seq) else (self._tree,)
        points = [n.spans[0][0] for n in nodes if isinstance(n, _Cls) and len(n.spans) == 1
                  and n.spans[0][0] == n.spans[0][1]]
        return "".join(map(chr, points)) if len(points) == len(nodes) else None

    def _choose(self):
        """Choose the engine, once: ``re`` for an unambiguous pattern."""
        plain = self.plain_tree()
        with self._lock:
            if self._match is None:
                self._match = plain is not None and re.compile(
                    _regex_source(plain), re.DOTALL).match
            return self._match

    def match_end(self, text: str, pos: int) -> int | None:
        """Return the end of the longest match starting at ``pos``, or None.

        A pattern that accepts the empty string yields ``pos`` itself when
        nothing longer matches.
        """
        match = self._match
        if match is None:
            match = self._choose()
        if match is False:
            return self._dfa_end(text, pos)
        found = match(text, pos)
        return None if found is None else found.end()

    def _dfa_end(self, text: str, pos: int) -> int | None:
        """:meth:`match_end` by walking the lazy DFA."""
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


def sequence_match(parts):
    """One ``re`` match for tokens in sequence, ``parts`` their choices.

    Returns the ``match`` of a regex whose group ``i`` is empty, at the
    end of token ``i - 1``: the tokens, ``(?:A|B)`` for choices ``A`` and
    ``B``, are nested in optional groups, ``(?:T0()(?:T1())?)?``, so
    ``lastindex`` counts the tokens that matched in a row and the match's
    end is where the next one failed, or the end of the last. Every group
    after a token is optional, so the first match never backtracks into a
    token: it takes the first choice that matches, and a choice's first
    match is its longest (:meth:`TokenPattern.plain_tree`). A group that
    marks an end, not one around the token, leaves the first token to
    match as fast as alone: once a group has matched, ``re`` saves the
    groups at each pass of a repeat that is more than one class. Returns
    None when a pattern among them walks the DFA.
    """
    body = ""
    for choices in reversed(parts):
        trees = [compiled.plain_tree() for compiled in choices]
        if None in trees:
            return None
        body = f"(?:(?:{'|'.join(map(_regex_source, trees))})(){body})?"
    return re.compile(body, re.DOTALL).match
