"""The builtin string types: structures, grammars and canonical forms.

Every root type here follows the same recipe. A grammar built from the
combinator kernel parses the whole raw string into a small structure, a
frozen slotted ``patterns.Structure`` record, recording the span each named
field consumed (``record`` does both for a fixed sequence of fields, and
its named parts are the type's fields and field recognizers), and a cast
function renders the canonical surface form of that structure. Three root
types have hand-written parse functions instead, and name their fields
themselves; each agrees with a kernel grammar that the tests keep as its
oracle: ``FilePath``, one ``re`` match whose first separator fixes the
rest and whose rejections a kernel ``alt`` reports, ``EqualAandB``, which
counts, and ``Expr``, which nests without bound. A subtype is declared
once, by ``subtype``, as its parent plus a recognizer for each field it
overrides: it parses with its parent's grammar and then checks those
fields' spans, exactly as narrowing from any ancestor does.
"""

from __future__ import annotations

import math
import re
import sys
from functools import partial

from .combinators import (
    Failure,
    Parser,
    Success,
    alt,
    lit,
    one_of,
    pattern,
    record,
    seq,
)
from .core import StringType, TypeRegistry, opaque_type, subtype
from .patterns import FrozenRecord, Structure, TokenPattern, _set

__all__ = [
    "CssColour", "CssUnit", "Email", "FilePath", "USPhone", "EqualAandB",
    "InnerR", "Const", "Add", "Mult", "Expr", "expr_text",
    "register_builtins", "build_registry",
]


# ---------------------------------------------------------------- colours

class CssColour(Structure):
    __slots__ = ("red", "green", "blue")

    def __init__(self, red: int, green: int, blue: int):
        _set(self, "red", red)
        _set(self, "green", green)
        _set(self, "blue", blue)


_HEX_PAIR = pattern("[0-9a-fA-F]{2}").map(lambda t: int(t, 16)).desc("a hex digit")
_HEX_SHORT = pattern("[0-9a-fA-F]").map(lambda c: int(c + c, 16)).desc("a hex digit")

_COLOUR = alt(*(
    record(CssColour, lit("#"), ("red", hex_), ("green", hex_), ("blue", hex_))
    for hex_ in (_HEX_PAIR, _HEX_SHORT)))


def cast_colour(c: CssColour) -> str:
    return f"#{c.red:02x}{c.green:02x}{c.blue:02x}"


# ------------------------------------------------------------------ units

class CssUnit(Structure):
    """A CSS length: ``value`` is None exactly when ``unit`` is "auto"."""

    __slots__ = ("value", "unit")

    def __init__(self, value: float | None, unit: str):
        _set(self, "value", value)
        _set(self, "unit", unit)


def _format_number(v: float) -> str:
    """``v`` in positional notation, in ``repr``'s shortest round-trip digits."""
    if v == int(v):
        return str(int(v))
    out = repr(abs(v))
    if "e" in out:
        # Only a fraction has an exponent here: 1.5e-05 is 0.000015.
        mantissa, exponent = out.split("e")
        out = f"0.{'0' * (-int(exponent) - 1)}{mantissa.replace('.', '')}"
    return "-" * (v < 0) + out


_DIGITS = TokenPattern(r"[0-9]+(\.[0-9]+)?")


def _finite_number(text, pos):
    # float() of a number too large for a float is inf, which has no cast.
    end = _DIGITS.match_end(text, pos)
    if end is None:
        return Failure(pos, "a number")
    value = float(text[pos:end])
    if value == math.inf:
        return Failure(pos, "a finite number")
    return Success(value, end)


_NUMBER = Parser(_finite_number, "a number")
# Centimetres per unit: the unit suffixes, in the order they are tried.
_CM_PER_UNIT = {"px": 2.54 / 96, "pt": 2.54 / 72, "pc": 2.54 / 6, "cm": 1.0}
_UNIT_SUFFIX = alt(*map(lit, _CM_PER_UNIT)).desc("a unit")
_UNIT = alt(record(CssUnit, ("value", _NUMBER), ("unit", _UNIT_SUFFIX)),
            record(partial(CssUnit, value=None), ("unit", lit("auto"))))


def cast_unit(u: CssUnit) -> str:
    if u.unit == "auto":
        return "auto"
    return _format_number(u.value) + u.unit


# ----------------------------------------------------------------- emails

class Email(Structure):
    __slots__ = ("name", "domain_left", "domain_right")

    def __init__(self, name: str, domain_left: str, domain_right: str):
        _set(self, "name", name)
        _set(self, "domain_left", domain_left)
        _set(self, "domain_right", domain_right)


_EMAIL_NAME = pattern("[0-9a-zA-Z]+").desc("an email name")
_DOMAIN = pattern("[0-9a-zA-Z-]+").desc("a domain name")
_TLD = pattern("[0-9a-zA-Z-.]+").desc("a top-level domain")
_EMAIL = record(Email, ("name", _EMAIL_NAME), lit("@"), ("domain_left", _DOMAIN),
                lit("."), ("domain_right", _TLD))


def cast_email(e: Email) -> str:
    return f"{e.name}@{e.domain_left}.{e.domain_right}"


# ------------------------------------------------------------- file paths

class FilePath(Structure):
    __slots__ = ("absolute", "dirs", "file_name", "ext", "separator")

    def __init__(self, absolute: bool, dirs: tuple[str, ...], file_name: str,
                 ext: str | None, separator: str):
        _set(self, "absolute", absolute)
        _set(self, "dirs", dirs)
        _set(self, "file_name", file_name)
        _set(self, "ext", ext)
        _set(self, "separator", separator)


_SEGMENT = pattern(r"[^/\\]+").desc("a path segment")
_SEPARATOR = one_of("/\\")


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


_PATH_RE = re.compile(r"([/\\])?[^/\\]+(?:(?(1)\1|([/\\]))[^/\\]+(?:(?(1)\1|\2)[^/\\]+)*)?")
_NO_PATH = alt(seq(_SEPARATOR, _SEGMENT), _SEGMENT)


def _path(text, pos):
    """Paths whose first separator, wherever it appears, fixes the style.

    ``_PATH_RE`` captures a leading separator, which makes the path
    absolute, in group 1, or else the first separator after a segment in
    group 2; every later separator must repeat it, so a path mixing
    separators stops part-way. A single relative segment shows no
    separator, so it defaults to "/" with no separator span. Where no
    segment starts the match fails, and ``_NO_PATH`` reports why.
    """
    m = _PATH_RE.match(text, pos)
    if m is None:
        return _NO_PATH.fn(text, pos)
    lead = m.group(1)
    sep = lead or m.group(2)
    spans = {"separator": m.span(1 if lead else 2)} if sep else {}
    start = m.end(1) if lead else pos
    end = m.end()
    dirs = text[start:end].split(sep) if sep else [text[start:end]]
    last = dirs.pop()
    fs = end - len(last)
    spans["dirs"] = (start, fs - 1) if dirs else (fs, fs)
    file_name, ext = _split_segment(last)
    dot = fs + len(file_name)
    spans["file_name"] = (fs, dot)
    if ext is not None:
        spans["ext"] = (dot + 1, end)
    return Success((FilePath(bool(lead), tuple(dirs), file_name, ext, sep or "/"), spans), end)


_PATH = Parser(_path)


def cast_path(p: FilePath) -> str:
    lead = p.separator if p.absolute else ""
    body = p.separator.join(p.dirs + (p.file_name,))
    tail = f".{p.ext}" if p.ext is not None else ""
    return lead + body + tail


# ---------------------------------------------------------- phone numbers

class USPhone(Structure):
    __slots__ = ("area", "office", "uniq")

    def __init__(self, area: int, office: int, uniq: int):
        _set(self, "area", area)
        _set(self, "office", office)
        _set(self, "uniq", uniq)


_PHONE_SEP = one_of(" ./-").fallback("")
_AREA = pattern("[2-9][0-9]{2}").map(int).desc("a valid area code")
_OFFICE = pattern("[2-9][0-9]{2}").map(int).desc("a valid office code")
_UNIQ = pattern("[0-9]{4}").map(int).desc("a valid identifier")

_PHONE = record(USPhone, ("area", _AREA), _PHONE_SEP, ("office", _OFFICE), _PHONE_SEP,
                ("uniq", _UNIQ))


def cast_phone(p: USPhone) -> str:
    return f"{p.area}-{p.office}-{p.uniq:04d}"


# ------------------------------------------------- counted a's and b's

class EqualAandB(Structure):
    __slots__ = ("count",)

    def __init__(self, count: int):
        _set(self, "count", count)


# How many b's to read depends on how many a's came before, which a single
# pattern cannot express. The count comes from two run scans, the run of
# a's and then at most that many b's, as ``_expr`` scans a number's digits,
# with no call per character. It accepts and fails as the kernel form
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

class InnerR(Structure):
    __slots__ = ("left", "right")

    def __init__(self, left: str, right: str):
        _set(self, "left", left)
        _set(self, "right", right)


# The first "r" is the pivot: everything before it is r-free, everything
# after it is kept verbatim.
_INNER_R = record(InnerR, ("left", pattern("[^r]*")), lit("r"), ("right", pattern(".*")))


def cast_inner_r(v: InnerR) -> str:
    return f"{v.left}r{v.right}"


# ------------------------------------------------------------ expressions

class _Node(FrozenRecord):
    """Base of the ``Expr`` nodes: a hash cached in a slot at construction.

    Each node's hash is computed once, from its class and its children's
    cached hashes, so hashing a tree is one slot read instead of a walk over
    every node, and no node carries a per-instance dict. Equality stays
    structural; unequal hashes only let it stop early.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


class Const(_Node):
    __slots__ = ("n",)

    def __init__(self, n: int):
        _set_n(self, n)
        _set_hash(self, hash(n))

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
        # Walk down left children and keep the right-child pairs still to
        # compare on a list, so a tree of any depth or length compares
        # without a Python frame per level.
        pending = []
        a, b = self, other
        while True:
            if a is not b:
                if a._hash != b._hash or a.__class__ is not b.__class__:
                    return False
                if a.__class__ is not Const:
                    pending.append((a.r, b.r))
                    a, b = a.l, b.l
                    continue
                if a.n != b.n:
                    return False
            if not pending:
                return True
            a, b = pending.pop()

    __hash__ = _Node.__hash__  # defining __eq__ would otherwise unset it

    def __reduce__(self):
        return type(self), (self.l, self.r)


_set_hash = _Node._hash.__set__
_set_n = Const.n.__set__
_set_l, _set_r = _Binary.l.__set__, _Binary.r.__set__


class Add(_Binary):
    __slots__ = ()


class Mult(_Binary):
    __slots__ = ()


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
    child needs them only below it. The walk goes down left children and
    keeps the rest on a list, so no tree is too deep to render.
    """
    out = []
    pending = [("", e, 0)]  # ")" to emit, or (operator before, node, floor) to render
    while pending:
        item = pending.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        op, node, floor = item
        out.append(op)
        while node.__class__ is not Const:
            level, op = (1, " + ") if node.__class__ is Add else (2, " * ")
            if level < floor:
                out.append("(")
                pending.append(")")
            pending.append((op, node.r, level + 1))
            node, floor = node.l, level
        out.append(str(node.n))
    return "".join(out)


# ------------------------------------------------------------ registration

_SANITISED_PATTERN = "[0-9a-zA-Z _.-]+"


def register_builtins(reg: TypeRegistry) -> TypeRegistry:
    reg.register(StringType("CssColour", _COLOUR, cast_colour))
    unit = reg.register(StringType("CssUnit", _UNIT, cast_unit))
    reg.register(subtype(unit, "PxOrAuto", unit=lit("px") | lit("auto")))
    email = reg.register(StringType("Email", _EMAIL, cast_email))
    reg.register(subtype(email, "Gmail", domain_left=lit("gmail")))
    path = reg.register(StringType(
        "FilePath", _PATH, cast_path,
        fields=("absolute", "dirs", "file_name", "ext", "separator"),
        checks=(("separator", _SEPARATOR), ("file_name", _SEGMENT))))
    unix = reg.register(subtype(path, "UnixPath", separator=lit("/")))
    reg.register(subtype(path, "WindowsPath", separator=lit("\\")))
    reg.register(subtype(unix, "HomeDotFile",
                         dirs=lit("home"), file_name=pattern(r"\.[^/\\]*")))
    reg.register(StringType("USPhone", _PHONE, cast_phone))
    reg.register(StringType("EqualAandB", _EQUAL_AB, cast_equal_ab, fields=("count",)))
    reg.register(StringType("InnerR", _INNER_R, cast_inner_r))
    reg.register(StringType("Expr", _EXPR, expr_text))
    reg.register(opaque_type("Sanitised", _SANITISED_PATTERN))
    reg.register(opaque_type("UserName", _SANITISED_PATTERN))
    return reg


def build_registry() -> TypeRegistry:
    """A fresh, unfrozen registry holding every builtin type."""
    return register_builtins(TypeRegistry())
