"""Operations that stay inside the typed-string model.

Each operation takes parsed values (or expression trees) and produces
results that are guaranteed, or checked, to stay in their type's language.
``blend``, ``concat_names`` and ``add_units`` take values of the builtin
type they declare (or a subtype) and render the result's canonical form,
whose format fixes each field's span; each field there is checked as
``append_to_name`` checks one, so a result is what their oracle
:func:`~strtype.core.from_structure` gives, with no parse, or raises as it
does. Appending arbitrary text re-checks the name and gives ``Err`` instead.
"""

from __future__ import annotations

import math
from typing import Any

from .builtins import (_CM_PER_UNIT, _COLOUR_TYPE, _EMAIL_TYPE, _UNIT_TYPE, Add, Const,
                       CssColour, CssUnit, Email, Expr, Mult, _format_number)
from .combinators import check_to_end
from .core import (
    Err,
    ErrorKind,
    InvalidStructureError,
    Ok,
    OpError,
    ParsedString,
    StringType,
    UnknownFieldError,
    _first_bad_field,
    _ok,
    check_field,
    from_structure,  # the oracle of the ops that build values, wrapped here by tracers
)
from .patterns import FrozenRecord, _set

__all__ = [
    "Projection", "blend", "concat_names", "raw_concat", "append_to_name",
    "project_field", "add_units", "to_centimetres", "sub_expressions",
    "normalize",
]


class Projection(FrozenRecord):
    """A field pulled out of a value, remembering where it came from."""

    __slots__ = ("value", "origin_type", "field_name")

    def __init__(self, value: Any, origin_type: str, field_name: str):
        _set(self, "value", value)
        _set(self, "origin_type", origin_type)
        _set(self, "field_name", field_name)


def _expect(value: ParsedString, declared: StringType, op: str) -> None:
    """Require a value of the type its registry registers as ``declared``."""
    cls = value.registry._classes.get(declared.name)
    if cls is None or cls._descriptor is not declared or not isinstance(value, cls):
        raise TypeError(f"{op} needs a {declared.name} value, got {value.type_name}")


def _check(a: ParsedString, spans: dict, raw: str) -> None:
    """Require each field at its span of ``raw`` to pass each of its checks in
    ``a``'s type, uncounted and ancestor end first."""
    bad = _first_bad_field(a._descriptor.checks, raw, spans, check_to_end)
    if bad is not None:
        raise InvalidStructureError(f"{raw!r} is not a {a.type_name}: field {bad[0]!r} "
                                    f"expected {bad[1].expected} at {bad[1].pos}")


def blend(a: ParsedString, b: ParsedString) -> ParsedString:
    """Additive blend of two colours, saturating each channel at 255.

    The result is ``#`` and two hex digits per channel, at 1-3, 3-5 and 5-7:
    a channel whose text there passes its check and reads back is two
    digits wide, as is each channel before it."""
    _expect(a, _COLOUR_TYPE, "blend")
    _expect(b, _COLOUR_TYPE, "blend")
    ca, cb = a.structure, b.structure
    channels = red, green, blue = (min(255, ca.red + cb.red), min(255, ca.green + cb.green),
                                   min(255, ca.blue + cb.blue))
    raw = f"#{red:02x}{green:02x}{blue:02x}"  # as cast_colour renders it
    spans = {"red": (1, 3), "green": (3, 5), "blue": (5, 7)}
    _check(a, spans, raw)
    mixed = CssColour(int(raw[1:3], 16), int(raw[3:5], 16), int(raw[5:7], 16))
    if mixed._fields != channels:
        raise InvalidStructureError(f"{raw!r} reads back as {mixed!r}, not {channels}")
    return _ok(type(a), mixed, spans, raw).value


def concat_names(a: ParsedString, b: ParsedString) -> ParsedString:
    """Concatenate two email names; the domain comes from the left value.

    The result is ``name@left.right``: a name that passes ``[0-9a-zA-Z]+``
    cannot hold the ``@`` that ends it, nor a left domain that passes
    ``[0-9a-zA-Z-]+`` the ``.``, so each field spans its own length. Email's
    names are closed under concatenation; a subtype's need not be."""
    _expect(a, _EMAIL_TYPE, "concat_names")
    _expect(b, _EMAIL_TYPE, "concat_names")
    left = a.structure
    name, domain = left.name + b.structure.name, left.domain_left
    raw = f"{name}@{domain}.{left.domain_right}"  # as cast_email renders it
    at, dot = len(name), len(name) + 1 + len(domain)
    spans = {"name": (0, at), "domain_left": (at + 1, dot), "domain_right": (dot + 1, len(raw))}
    _check(a, spans, raw)
    return _ok(type(a), Email(name, domain, left.domain_right), spans, raw).value


def raw_concat(a: ParsedString, b: ParsedString) -> str:
    """Plain string concatenation of the canonical forms; the type is gone."""
    return a.cast() + b.cast()


def append_to_name(e: ParsedString, suffix: str) -> Ok | Err:
    """Append text to an email's name, re-checking only the name field.

    The raw string is spliced at the end of the recorded name span, and
    the new name's span is checked against every ``name`` entry of the
    type's ``checks``, ancestor end first, as narrowing checks a span. The
    rest of the value is untouched: the other spans shift. The value keeps its exact type, so appending to
    a Gmail yields a Gmail.
    """
    _expect(e, _EMAIL_TYPE, "append_to_name")
    start, end = e.spans["name"]
    delta = len(suffix)
    raw = e.raw[:end] + suffix + e.raw[end:]
    spans = {"name": (start, end + delta)}
    bad = _first_bad_field(e.descriptor().checks, raw, spans, check_field)
    if bad is not None:
        return Err(OpError(
            ErrorKind.CLOSURE,
            f"appending {suffix!r} takes the name out of its language: "
            f"expected {bad[1].expected}",
            field="name"))
    for name, (fs, fe) in e.spans.items():
        if name != "name":
            spans[name] = (fs + delta, fe + delta) if fs >= end else (fs, fe)
    structure = e.structure.__replace__(name=e.structure.name + suffix)
    return _ok(type(e), structure, spans, raw)


def project_field(v: ParsedString, field_name: str) -> Projection:
    """Extract one field the value's type declares, tagged with its origin
    type; the fields are those ``strtype extract`` accepts."""
    if field_name not in v.descriptor().fields:
        raise UnknownFieldError(
            f"type {v.type_name!r} has no field {field_name!r}")
    return Projection(getattr(v.structure, field_name), v.type_name, field_name)


def to_centimetres(u: CssUnit) -> float:
    """Numeric value of a measured unit in centimetres."""
    if u.unit == "auto":
        raise ValueError("auto has no numeric value")
    return u.value * _CM_PER_UNIT[u.unit]


def add_units(a: ParsedString, b: ParsedString) -> Ok | Err:
    """Add two lengths; the result carries the left operand's unit.

    ``auto`` on either side has no numeric value to add and comes back as
    an incompatible-types error; a sum too large for a float comes back as
    a closure violation. Else the result is the sum's digits, which must read
    back as the sum and, passing ``[0-9]+(\\.[0-9]+)?``, cannot run on into
    the unit (never ``auto`` here). A length in the left unit adds unscaled."""
    _expect(a, _UNIT_TYPE, "add_units")
    _expect(b, _UNIT_TYPE, "add_units")
    ua, ub = a.structure, b.structure
    if ua.unit == "auto" or ub.unit == "auto":
        return Err(OpError(
            ErrorKind.INCOMPATIBLE, "auto has no numeric value to add"))
    value = ua.value + ub.value * (
        1.0 if ub.unit == ua.unit else _CM_PER_UNIT[ub.unit] / _CM_PER_UNIT[ua.unit])
    if value == math.inf:
        return Err(OpError(
            ErrorKind.CLOSURE, f"the sum overflows a float in {ua.unit}"))
    digits = _format_number(value)
    raw = digits + ua.unit  # as cast_unit renders it
    spans = {"value": (0, len(digits)), "unit": (len(digits), len(raw))}
    _check(a, spans, raw)
    if (length := float(digits)) != value:
        raise InvalidStructureError(f"{raw!r}: field 'value' reads back as {length!r}, not {value!r}")
    return _ok(type(a), CssUnit(length, ua.unit), spans, raw)


def sub_expressions(e: Expr) -> list[Expr]:
    """Every subtree of an expression in preorder, the tree itself first.

    The walk keeps its own stack, so a long sum cannot exhaust Python's."""
    found, pending = [], [e]
    while pending:
        node = pending.pop()
        while (cls := node.__class__) is Add or cls is Mult or (
                cls is not Const and isinstance(node, (Add, Mult))):
            found.append(node)  # and on down the left spine
            pending.append(node.r)
            node = node.l
        if cls is not Const and not isinstance(node, Const):
            raise TypeError(f"not an expression tree: {node!r}")
        found.append(node)
    return found


def normalize(v: ParsedString) -> str:
    """The canonical surface form; parsing it back gives an equal value."""
    return v.cast()
