"""The builtin string types: structures, grammars and canonical forms.

Every root type here follows the same recipe. A grammar built from the
combinator kernel parses the whole raw string into a small structure, a
frozen slotted ``patterns.Structure`` record, recording the span each named
field consumed (``record`` does both for a fixed sequence of fields, and
its named parts are the type's fields and field recognizers), and prints
its canonical surface form (``record`` derives the cast from its parts).
Three root types have hand-written parse and cast functions instead, and
name their fields themselves; each agrees with a kernel grammar that the
tests keep as its oracle: ``FilePath``, ``str`` scans whose first
separator fixes the rest and whose rejections a kernel ``alt`` reports,
``EqualAandB``, which counts, and ``Expr``, which nests without bound over
tokens that ``str`` methods cut; only ``EqualAandB`` compiles regexes, at
its first parse.
A subtype is declared once, by ``subtype``, as its parent plus a
recognizer for each field it overrides: it parses with its parent's
grammar and then checks those fields' spans, exactly as narrowing from
any ancestor does.
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
from .patterns import FrozenRecord, Structure, TokenPattern, _setters

__all__ = [
    "CssColour", "CssUnit", "Email", "FilePath", "USPhone", "EqualAandB",
    "InnerR", "Const", "Add", "Mult", "Expr", "expr_text",
    "register_builtins", "build_registry",
]


# ---------------------------------------------------------------- colours

class CssColour(Structure):
    __slots__ = ("red", "green", "blue")

    def __init__(self, red: int, green: int, blue: int):
        _set_red(self, red)
        _set_green(self, green)
        _set_blue(self, blue)


_set_red, _set_green, _set_blue = _setters(CssColour)

_HEX_PAIR = pattern("[0-9a-fA-F]{2}").map(lambda t: int(t, 16), "02x").desc("a hex digit")
_HEX_SHORT = pattern("[0-9a-fA-F]").map(lambda c: int(c + c, 16)).desc("a hex digit")

_COLOUR = alt(*(
    record(CssColour, lit("#"), ("red", hex_), ("green", hex_), ("blue", hex_))
    for hex_ in (_HEX_PAIR, _HEX_SHORT)))


# ------------------------------------------------------------------ units

class CssUnit(Structure):
    """A CSS length: ``value`` is None exactly when ``unit`` is "auto"."""

    __slots__ = ("value", "unit")

    def __init__(self, value: float | None, unit: str):
        _set_value(self, value)
        _set_unit(self, unit)


_set_value, _set_unit = _setters(CssUnit)


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
_NUMBER.conv, _NUMBER.render = float, _format_number  # its value from its text, and back
# Centimetres per unit: the unit suffixes, in the order they are tried.
_CM_PER_UNIT = {"px": 2.54 / 96, "pt": 2.54 / 72, "pc": 2.54 / 6, "cm": 1.0}
_UNIT_SUFFIX = alt(*map(lit, _CM_PER_UNIT)).desc("a unit")
_UNIT = alt(record(CssUnit, ("value", _NUMBER), ("unit", _UNIT_SUFFIX)),
            record(partial(CssUnit, value=None), ("unit", lit("auto"))))


# ----------------------------------------------------------------- emails

class Email(Structure):
    __slots__ = ("name", "domain_left", "domain_right")

    def __init__(self, name: str, domain_left: str, domain_right: str):
        _set_name(self, name)
        _set_domain_left(self, domain_left)
        _set_domain_right(self, domain_right)


_set_name, _set_domain_left, _set_domain_right = _setters(Email)

_EMAIL_NAME = pattern("[0-9a-zA-Z]+").desc("an email name")
_DOMAIN = pattern("[0-9a-zA-Z-]+").desc("a domain name")
_TLD = pattern("[0-9a-zA-Z-.]+").desc("a top-level domain")
_EMAIL = record(Email, ("name", _EMAIL_NAME), lit("@"), ("domain_left", _DOMAIN),
                lit("."), ("domain_right", _TLD))


# ------------------------------------------------------------- file paths

class FilePath(Structure):
    __slots__ = ("absolute", "dirs", "file_name", "ext", "separator")

    def __init__(self, absolute: bool, dirs: tuple[str, ...], file_name: str,
                 ext: str | None, separator: str):
        _set_absolute(self, absolute)
        _set_dirs(self, dirs)
        _set_file_name(self, file_name)
        _set_ext(self, ext)
        _set_separator(self, separator)


_set_absolute, _set_dirs, _set_file_name, _set_ext, _set_separator = _setters(FilePath)

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


_NO_PATH = alt(seq(_SEPARATOR, _SEGMENT), _SEGMENT)


def _path(text, pos):
    """Paths whose first separator, wherever it appears, fixes the style.

    Two ``find``s fix the first separator, which makes the path absolute
    at ``pos``, and the first of the other kind, which bounds the body.
    The body splits into segments, and the path ends before its first
    empty one, so a path mixing separators, or with a doubled or trailing
    one, stops part-way. A single relative segment shows no separator, so
    it defaults to "/" with no separator span. Where no segment starts,
    ``_NO_PATH`` reports why.
    """
    slash, back = text.find("/", pos), text.find("\\", pos)
    if back >= 0 and (slash < 0 or back < slash):
        sep, lead, bound = "\\", back == pos, slash
    else:
        sep, lead, bound = "/", slash == pos, back
    start = pos + lead
    end = bound if bound >= 0 else len(text)
    dirs = text[start:end].split(sep)
    if "" in dirs:
        del dirs[dirs.index(""):]
        if not dirs:
            return _NO_PATH.fn(text, pos)
        end = start + sum(map(len, dirs)) + len(dirs) - 1
    at = pos if lead else pos + len(dirs[0])
    sep, spans = (sep, {"separator": (at, at + 1)}) if lead or len(dirs) > 1 else ("/", {})
    last = dirs.pop()
    fs = end - len(last)
    spans["dirs"] = (start, fs - 1) if dirs else (fs, fs)
    file_name, ext = _split_segment(last)
    dot = fs + len(file_name)
    spans["file_name"] = (fs, dot)
    if ext is not None:
        spans["ext"] = (dot + 1, end)
    return Success((FilePath(lead, tuple(dirs), file_name, ext, sep), spans), end)


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
        _set_area(self, area)
        _set_office(self, office)
        _set_uniq(self, uniq)


_set_area, _set_office, _set_uniq = _setters(USPhone)

# Its first choice, "-", is the one it prints.
_PHONE_SEP = (lit("-") | one_of(" ./")).fallback("")
_AREA = pattern("[2-9][0-9]{2}").map(int, "").desc("a valid area code")
_OFFICE = pattern("[2-9][0-9]{2}").map(int, "").desc("a valid office code")
_UNIQ = pattern("[0-9]{4}").map(int, "04d").desc("a valid identifier")

_PHONE = record(USPhone, ("area", _AREA), _PHONE_SEP, ("office", _OFFICE), _PHONE_SEP,
                ("uniq", _UNIQ))


# ------------------------------------------------- counted a's and b's

class EqualAandB(Structure):
    __slots__ = ("count",)

    def __init__(self, count: int):
        _set_count(self, count)


[_set_count] = _setters(EqualAandB)

# How many b's to read depends on how many a's came before, which a single
# pattern cannot express. The count comes from two run scans, the run of
# a's and then at most that many b's, with no call per character. It
# accepts and fails as the kernel form
# ``many(a).bind(lambda run: times(b, len(run)))`` does, which the tests
# keep as its oracle: too few b's fail at the first non-b, expecting "'b'".
_ab_runs = None  # the two scans' matches, compiled at the first parse


def _equal_ab(text, pos):
    global _ab_runs
    if _ab_runs is None:
        _ab_runs = re.compile("a*").match, re.compile("b*").match
    mid = _ab_runs[0](text, pos).end()
    count = mid - pos
    end = _ab_runs[1](text, mid, mid + count).end()
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
        _set_left(self, left)
        _set_right(self, right)


_set_left, _set_right = _setters(InnerR)

# The first "r" is the pivot: everything before it is r-free, everything
# after it is kept verbatim.
_INNER_R = record(InnerR, ("left", pattern("[^r]*")), lit("r"), ("right", pattern(".*")))


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
# grammar as its oracle. It steps over tokens that str methods cut in C:
# lstrip bounds the run of characters the grammar knows, so split (with
# the operators padded) cuts at no other whitespace, and a digit token
# holds ASCII digits only. A sentinel "" ends the tokens; a stop before it
# steps back from the end to find its position. The run is cut whole even
# when a parse stops early, so an early stop costs time linear in the run,
# not in what was parsed. An operand failing after an operator gives it
# back, ending its level before it; any other failure is the report, and a
# digit run too long for int() fails at its start. Numbers of at most 3
# digits share their Const leaves: trees compare by structure, not identity.
_EXPR_CHARS = "0123456789()*+ \t\n\r"  # digits, operators and whitespace
_LEAVES = {}  # digit token of at most 3 characters -> its Const (1,110 at most)
# 0 means no limit, as on a Python 3.10 too old to have one.
_int_max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _token_start(text, pos, tokens, i, last):
    """Where ``tokens[i]`` starts: only whitespace lies between tokens."""
    for token in reversed(tokens[i:-1]):
        last = text.rfind(token, pos, last)
    return last


def _expr(text, pos):
    last = len(text) - len(text[pos:].lstrip(_EXPR_CHARS))
    run = text[pos:last].replace("(", " ( ").replace(")", " ) ")
    tokens = run.replace("*", " * ").replace("+", " + ").split()
    tokens.append("")
    limit = _int_max_digits() or len(text)
    stack = []  # for each open bracket, the enclosing level's (total, product, op)
    # This level's sum so far, the product being added to it, and the index
    # of the operator before the pending operand.
    total = product = op = None
    i = 0
    while True:
        token = tokens[i]
        value = _LEAVES.get(token)
        if value is None and token.isdigit() and len(token) <= limit:
            value = Const(int(token))
            if len(token) <= 3:  # a thread race only stores an equal duplicate
                _LEAVES[token] = value
        if value is not None:
            i += 1
        elif token == "(":
            stack.append((total, product, op))
            total = product = None
            i += 1
            continue
        else:
            failed = i
            expected = (f"a number of at most {limit} digits" if token.isdigit()
                        else 'a number or "("')
        # Fold the operand in, closing brackets, until an operator asks for
        # the next operand.
        while True:
            if value is not None:
                op = i
                product = value if product is None else Mult(product, value)
                if tokens[i] == "*":
                    i += 1
                    break
            elif total is None and product is None:
                # A level's first operand failed, and with it the bracket.
                if not stack:
                    return Failure(_token_start(text, pos, tokens, failed, last), expected)
                total, product, op = stack.pop()
                continue
            else:
                i = op  # the operand after an operator failed: give it back
            if product is not None:
                total = product if total is None else Add(total, product)
                product = None
            if value is not None and tokens[i] == "+":
                i += 1
                break
            if not stack:
                return Success((total, {}), _token_start(text, pos, tokens, i, last)
                               if tokens[i] else last)
            if tokens[i] == ")":
                value = total
                i += 1
            else:
                value, failed, expected = None, i, '")"'
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
        while (cls := node.__class__) is not Const:
            if cls is Add or cls is not Mult and isinstance(node, Add):
                level, op = 1, " + "
            elif cls is Mult or isinstance(node, Mult):
                level, op = 2, " * "
            elif isinstance(node, Const):
                break  # a subclass of Const
            else:
                raise TypeError(f"not an expression tree: {node!r}")
            if level < floor:
                out.append("(")
                pending.append(")")
            pending.append((op, node.r, level + 1))
            node, floor = node.l, level
        out.append(str(node.n))
    return "".join(out)


# ------------------------------------------------------------ registration

_SANITISED_PATTERN = "[0-9a-zA-Z _.-]+"
# Roots whose canonical forms strtype.ops renders: shared, so known by identity.
_COLOUR_TYPE = StringType("CssColour", _COLOUR)
_UNIT_TYPE = StringType("CssUnit", _UNIT)
_EMAIL_TYPE = StringType("Email", _EMAIL)


def register_builtins(reg: TypeRegistry) -> TypeRegistry:
    reg.register(_COLOUR_TYPE)
    unit = reg.register(_UNIT_TYPE)
    reg.register(subtype(unit, "PxOrAuto", unit=lit("px") | lit("auto")))
    email = reg.register(_EMAIL_TYPE)
    reg.register(subtype(email, "Gmail", domain_left=lit("gmail")))
    path = reg.register(StringType(
        "FilePath", _PATH, cast_path,
        fields=("absolute", "dirs", "file_name", "ext", "separator"),
        checks=(("separator", _SEPARATOR), ("file_name", _SEGMENT))))
    unix = reg.register(subtype(path, "UnixPath", separator=lit("/")))
    reg.register(subtype(path, "WindowsPath", separator=lit("\\")))
    reg.register(subtype(unix, "HomeDotFile",
                         dirs=lit("home"), file_name=pattern(r"\.[^/\\]*")))
    reg.register(StringType("USPhone", _PHONE))
    reg.register(StringType("EqualAandB", _EQUAL_AB, cast_equal_ab, fields=("count",)))
    reg.register(StringType("InnerR", _INNER_R))
    reg.register(StringType("Expr", _EXPR, expr_text))
    reg.register(opaque_type("Sanitised", _SANITISED_PATTERN))
    reg.register(opaque_type("UserName", _SANITISED_PATTERN))
    return reg


def build_registry() -> TypeRegistry:
    """A fresh, unfrozen registry holding every builtin type."""
    return register_builtins(TypeRegistry())
