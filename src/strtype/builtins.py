"""The builtin string types: structures, grammars and canonical forms.

Every root type here follows the same recipe. A grammar built from the
combinator kernel parses the whole raw string into a small frozen
dataclass, recording the span each named field consumed (``record`` does
both for a fixed sequence of fields), and a cast function renders the
canonical surface form of that structure. Two root types have
hand-written parse functions instead, each agreeing with a kernel grammar
that the tests keep as its oracle: ``EqualAandB``, which counts, and
``Expr``, which nests without bound. A subtype is declared once, by
``subtype``, as its parent plus a recognizer for each field it overrides:
it parses with its parent's grammar and then checks those fields' spans,
exactly as narrowing from any ancestor does.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import partial

from .combinators import (
    Failure,
    Parser,
    Success,
    alt,
    lit,
    many,
    one_of,
    pattern,
    record,
    satisfy,
    seq,
    spanned,
    succeed,
)
from .core import StringType, TypeRegistry, opaque_type, subtype

__all__ = [
    "CssColour", "CssUnit", "Email", "FilePath", "USPhone", "EqualAandB",
    "InnerR", "Const", "Add", "Mult", "Expr", "expr_text",
    "register_builtins", "build_registry",
]


# ---------------------------------------------------------------- colours

@dataclass(frozen=True)
class CssColour:
    red: int
    green: int
    blue: int


_HEX_DIGIT = satisfy(lambda c: c in "0123456789abcdefABCDEF", "a hex digit")
_HEX_PAIR = seq(_HEX_DIGIT, _HEX_DIGIT).map(lambda t: int(t[0] + t[1], 16))
_HEX_SHORT = _HEX_DIGIT.map(lambda c: int(c + c, 16))

_COLOUR = alt(*(
    record(CssColour, lit("#"), ("red", hex_), ("green", hex_), ("blue", hex_))
    for hex_ in (_HEX_PAIR, _HEX_SHORT)))


def cast_colour(c: CssColour) -> str:
    return f"#{c.red:02x}{c.green:02x}{c.blue:02x}"


# ------------------------------------------------------------------ units

@dataclass(frozen=True)
class CssUnit:
    """A CSS length: ``value`` is None exactly when ``unit`` is "auto"."""
    value: float | None
    unit: str


def _format_number(v: float) -> str:
    if v == int(v):
        return str(int(v))
    out = repr(v)
    if "e" in out or "E" in out:
        out = f"{v:.17f}".rstrip("0").rstrip(".")
    return out


_NUMBER = pattern(r"[0-9]+(\.[0-9]+)?").desc("a number").map(float)
_UNIT_SUFFIX = alt(lit("px"), lit("pt"), lit("pc"), lit("cm")).desc("a unit")
_UNIT = alt(record(CssUnit, ("value", _NUMBER), ("unit", _UNIT_SUFFIX)),
            record(partial(CssUnit, value=None), ("unit", lit("auto"))))


def cast_unit(u: CssUnit) -> str:
    if u.unit == "auto":
        return "auto"
    return _format_number(u.value) + u.unit


# ----------------------------------------------------------------- emails

@dataclass(frozen=True)
class Email:
    name: str
    domain_left: str
    domain_right: str


_EMAIL_NAME = pattern("[0-9a-zA-Z]+").desc("an email name")
_DOMAIN = pattern("[0-9a-zA-Z-]+").desc("a domain name")
_TLD = pattern("[0-9a-zA-Z-.]+").desc("a top-level domain")
_EMAIL = record(Email, ("name", _EMAIL_NAME), lit("@"), ("domain_left", _DOMAIN),
                lit("."), ("domain_right", _TLD))


def cast_email(e: Email) -> str:
    return f"{e.name}@{e.domain_left}.{e.domain_right}"


# ------------------------------------------------------------- file paths

@dataclass(frozen=True)
class FilePath:
    absolute: bool
    dirs: tuple[str, ...]
    file_name: str
    ext: str | None
    separator: str


_SEGMENT = pattern(r"[^/\\]+").desc("a path segment")


def _split_segment(segment: str) -> tuple[str, str | None]:
    """Split a final path segment into file name and extension.

    The extension is whatever follows the last dot, provided that leaves
    both halves non-empty; a leading dot (".bashrc") therefore stays part
    of the file name.
    """
    i = segment.rfind(".")
    if 0 < i < len(segment) - 1:
        return segment[:i], segment[i + 1:]
    return segment, None


def _assemble_path(absolute: bool, sep_char: str | None, seg_spans, lead_start: int):
    *dir_spans, (file_text, fs, fe) = seg_spans
    file_name, ext = _split_segment(file_text)
    spans: dict[str, tuple[int, int]] = {}
    if absolute:
        spans["separator"] = (lead_start, lead_start + 1)
    elif sep_char is not None:
        first_end = seg_spans[0][2]
        spans["separator"] = (first_end, first_end + 1)
    spans["dirs"] = (dir_spans[0][1], dir_spans[-1][2]) if dir_spans else (fs, fs)
    if ext is not None:
        dot = fs + len(file_name)
        spans["file_name"] = (fs, dot)
        spans["ext"] = (dot + 1, fe)
    else:
        spans["file_name"] = (fs, fe)
    structure = FilePath(
        absolute=absolute,
        dirs=tuple(t for t, _, _ in dir_spans),
        file_name=file_name,
        ext=ext,
        separator=sep_char if sep_char is not None else "/",
    )
    return (structure, spans)


def _path_grammar() -> Parser:
    """Paths whose first separator, wherever it appears, fixes the style.

    The style char flows through ``bind`` into the parser for the rest of
    the string, so a path mixing separators fails part-way instead of
    parsing inconsistently. A relative path with a single segment carries
    no separator evidence at all; its structure defaults to "/" and it
    records no separator span.
    """
    segment = spanned(_SEGMENT)
    style = one_of("/\\")

    def more(c: str) -> Parser:
        return many(seq(lit(c), segment).map(lambda t: t[1]))

    absolute = spanned(style).bind(
        lambda lead: segment.bind(
            lambda first: more(lead[0]).map(
                lambda rest: _assemble_path(True, lead[0], [first] + rest, lead[1]))))

    def relative_tail(first):
        fixed = spanned(style).bind(
            lambda s: segment.bind(
                lambda second: more(s[0]).map(
                    lambda rest: _assemble_path(False, s[0], [first, second] + rest, 0))))
        return alt(fixed, succeed(_assemble_path(False, None, [first], 0)))

    return alt(absolute, segment.bind(relative_tail))


_PATH = _path_grammar()


def cast_path(p: FilePath) -> str:
    lead = p.separator if p.absolute else ""
    body = p.separator.join(p.dirs + (p.file_name,))
    tail = f".{p.ext}" if p.ext is not None else ""
    return lead + body + tail


# ---------------------------------------------------------- phone numbers

@dataclass(frozen=True)
class USPhone:
    area: int
    office: int
    uniq: int


_PHONE_SEP = one_of(" ./-").fallback("")
_AREA = pattern("[2-9][0-9]{2}").map(int).desc("a valid area code")
_OFFICE = pattern("[2-9][0-9]{2}").map(int).desc("a valid office code")
_UNIQ = pattern("[0-9]{4}").map(int).desc("a valid identifier")

_PHONE = record(USPhone, ("area", _AREA), _PHONE_SEP, ("office", _OFFICE), _PHONE_SEP,
                ("uniq", _UNIQ))


def cast_phone(p: USPhone) -> str:
    return f"{p.area}-{p.office}-{p.uniq:04d}"


# ------------------------------------------------- counted a's and b's

@dataclass(frozen=True)
class EqualAandB:
    count: int


# How many b's to read depends on how many a's came before, which a single
# pattern cannot express. The count comes from two run scans, the run of
# a's and then at most that many b's, as ``_number`` scans its digits, with
# no call per character. It accepts and fails as the kernel form
# ``many(a).bind(lambda run: times(b, len(run)))`` does, which the tests
# keep as its oracle: too few b's fail at the first non-b, expecting "'b'".
_A_RUN = re.compile("a*")
_B_RUN = re.compile("b*")


def _equal_ab(text, pos):
    mid = _A_RUN.match(text, pos).end()
    count = mid - pos
    end = _B_RUN.match(text, mid, mid + count).end()
    if end - mid < count:
        return Failure(end, "'b'")
    return Success((EqualAandB(count), {}), end)


_EQUAL_AB = Parser(_equal_ab)


def cast_equal_ab(v: EqualAandB) -> str:
    return "a" * v.count + "b" * v.count


# ------------------------------------------------------- inner-r strings

@dataclass(frozen=True)
class InnerR:
    left: str
    right: str


# The first "r" is the pivot: everything before it is r-free, everything
# after it is kept verbatim.
_INNER_R = record(InnerR, ("left", pattern("[^r]*")), lit("r"), ("right", pattern(".*")))


def cast_inner_r(v: InnerR) -> str:
    return f"{v.left}r{v.right}"


# ------------------------------------------------------------ expressions

class _Node:
    """Base of the ``Expr`` nodes: a hash cached in a slot at construction.

    Each node's hash is computed once, from its class and its children's
    cached hashes, so hashing a tree is one slot read instead of a walk over
    every node, and no node carries a per-instance dict. Equality stays
    structural; unequal hashes only let it stop early.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, init=False)
class Const(_Node):
    __slots__ = ("n",)
    n: int

    def __init__(self, n: int):
        _set_n(self, n)
        _set_hash(self, hash(n))

    # Named here, or the dataclass would put a field hash in its place.
    __hash__ = _Node.__hash__

    def __reduce__(self):
        return Const, (self.n,)


class _Binary(_Node):
    """Body shared by ``Add`` and ``Mult``, whose children are ``Expr`` nodes."""

    __slots__ = ("l", "r")

    def __init__(self, l: "Expr", r: "Expr"):
        _set_l(self, l)
        _set_r(self, r)
        _set_hash(self, hash((type(self), l._hash, r._hash)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self.l == other.l and self.r == other.r)

    __hash__ = _Node.__hash__  # defining __eq__ would otherwise unset it

    def __reduce__(self):
        return type(self), (self.l, self.r)


_set_hash = _Node._hash.__set__
_set_n = Const.n.__set__
_set_l, _set_r = _Binary.l.__set__, _Binary.r.__set__


@dataclass(frozen=True, init=False, eq=False)
class Add(_Binary):
    __slots__ = ()
    l: "Expr"
    r: "Expr"


@dataclass(frozen=True, init=False, eq=False)
class Mult(_Binary):
    __slots__ = ()
    l: "Expr"
    r: "Expr"


Expr = Const | Add | Mult

# An Expr parse is one loop that keeps the open brackets on a list, so
# nesting depth is limited by memory, not by Python's call stack. It
# accepts, builds trees and reports failures exactly as the kernel grammar
#
#     sum = chain_left(product, "+")    product = chain_left(atom, "*")
#     atom = alt(number, seq("(", sum, ")"))
#
# does, with whitespace skipped after every token; the tests keep that
# grammar as its oracle. An operand that fails after an operator gives the
# operator back, and its level ends before it; any other failure is the
# report. A digit run longer than int() converts fails at its start.
_EXPR_WS = " \t\n\r"
# 0 means no limit, as on a Python 3.10 too old to have one.
_int_max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _expr(text, pos):
    n = len(text)
    limit = _int_max_digits() or n
    stack = []  # for each open bracket, the enclosing level's (total, product, op)
    # This level's sum so far, the product being added to it, and where the
    # operator before the pending operand is.
    total = product = op = None
    while True:
        while pos < n and text[pos] in _EXPR_WS:
            pos += 1
        end = pos
        while end < n and text[end] in "0123456789":
            end += 1
        if pos < end <= pos + limit:
            value = Const(int(text[pos:end]))
            pos = end
        elif end == pos and text.startswith("(", pos):
            stack.append((total, product, op))
            total = product = None
            pos += 1
            continue
        else:
            value = None
            failure = Failure(pos, f"a number of at most {limit} digits" if end > pos
                              else 'a number or "("')
        # Fold the operand in, closing brackets, until an operator asks for
        # the next operand.
        while True:
            if value is not None:
                while pos < n and text[pos] in _EXPR_WS:
                    pos += 1
                op = pos
                product = value if product is None else Mult(product, value)
                if text.startswith("*", pos):
                    pos += 1
                    break
            elif total is None and product is None:
                # A level's first operand failed, and with it the bracket.
                if not stack:
                    return failure
                total, product, op = stack.pop()
                continue
            else:
                pos = op  # the operand after an operator failed: give it back
            if product is not None:
                total = product if total is None else Add(total, product)
                product = None
            if value is not None and text.startswith("+", pos):
                pos += 1
                break
            if not stack:
                return Success((total, {}), pos)
            if text.startswith(")", pos):
                value = total
                pos += 1
            else:
                value = None
                failure = Failure(pos, '")"')
            total, product, op = stack.pop()


_EXPR = Parser(_expr)


def expr_text(e: Expr) -> str:
    """Render with the fewest parentheses that reparse to the same tree.

    Both operators associate left and "*" binds tighter than "+", so a
    right child needs parentheses at its own precedence level while a left
    child needs them only below it.
    """
    def go(node, floor):
        if isinstance(node, Const):
            return str(node.n)
        if isinstance(node, Add):
            rendered, level = f"{go(node.l, 1)} + {go(node.r, 2)}", 1
        else:
            rendered, level = f"{go(node.l, 2)} * {go(node.r, 3)}", 2
        return f"({rendered})" if level < floor else rendered
    return go(e, 0)


# ------------------------------------------------------------ registration

_SANITISED_PATTERN = "[0-9a-zA-Z _.-]+"


def register_builtins(reg: TypeRegistry) -> TypeRegistry:
    reg.register(StringType(
        "CssColour", _COLOUR, cast_colour,
        fields=("red", "green", "blue")))
    unit = reg.register(StringType(
        "CssUnit", _UNIT, cast_unit,
        fields=("value", "unit"),
        field_recognizers={"unit": _UNIT_SUFFIX | lit("auto"),
                           "value": _NUMBER}))
    reg.register(subtype(unit, "PxOrAuto", unit=lit("px") | lit("auto")))
    email = reg.register(StringType(
        "Email", _EMAIL, cast_email,
        fields=("name", "domain_left", "domain_right"),
        field_recognizers={"name": _EMAIL_NAME,
                           "domain_left": _DOMAIN,
                           "domain_right": _TLD}))
    reg.register(subtype(email, "Gmail", domain_left=lit("gmail")))
    path = reg.register(StringType(
        "FilePath", _PATH, cast_path,
        fields=("absolute", "dirs", "file_name", "ext", "separator"),
        field_recognizers={"separator": one_of("/\\"), "file_name": _SEGMENT}))
    unix = reg.register(subtype(path, "UnixPath", separator=lit("/")))
    reg.register(subtype(path, "WindowsPath", separator=lit("\\")))
    reg.register(subtype(unix, "HomeDotFile",
                         dirs=lit("home"), file_name=pattern(r"\.[^/\\]*")))
    reg.register(StringType(
        "USPhone", _PHONE, cast_phone,
        fields=("area", "office", "uniq")))
    reg.register(StringType(
        "EqualAandB", _EQUAL_AB, cast_equal_ab,
        fields=("count",), keep_raw=False))
    reg.register(StringType(
        "InnerR", _INNER_R, cast_inner_r,
        fields=("left", "right")))
    reg.register(StringType(
        "Expr", _EXPR, expr_text))
    reg.register(opaque_type("Sanitised", _SANITISED_PATTERN))
    reg.register(opaque_type("UserName", _SANITISED_PATTERN))
    return reg


def build_registry() -> TypeRegistry:
    """A fresh, unfrozen registry holding every builtin type."""
    return register_builtins(TypeRegistry())
