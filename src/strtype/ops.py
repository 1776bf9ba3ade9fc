"""Operations that stay inside the typed-string model.

Each operation takes parsed values (or expression trees) and produces
results that are guaranteed, or checked, to stay in their type's language.
Where closure holds by construction (blending colours, concatenating
alphanumeric names) the result is built by :func:`~strtype.core.from_structure`,
which parses its cast once more to recover the field spans and raises if
closure fails after all; where it depends on the data (appending
arbitrary text to a name) the single affected field is re-checked and a
closure violation comes back as ``Err``.
"""

from __future__ import annotations

import math
from typing import Any

from .builtins import _CM_PER_UNIT, Add, Const, CssColour, CssUnit, Email, Expr, Mult
from .core import (
    Err,
    ErrorKind,
    Ok,
    OpError,
    ParsedString,
    UnknownFieldError,
    _first_bad_field,
    _ok,
    check_field,
    from_structure,
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


def _expect(value: ParsedString, structure_type: type, op: str) -> None:
    if not isinstance(value.structure, structure_type):
        raise TypeError(
            f"{op} needs a {structure_type.__name__} value, "
            f"got {value.type_name}")


def blend(a: ParsedString, b: ParsedString) -> ParsedString:
    """Additive blend of two colours, saturating each channel at 255."""
    _expect(a, CssColour, "blend")
    _expect(b, CssColour, "blend")
    ca, cb = a.structure, b.structure
    mixed = CssColour(
        min(255, ca.red + cb.red),
        min(255, ca.green + cb.green),
        min(255, ca.blue + cb.blue),
    )
    return from_structure(a.registry, a.type_name, mixed)


def concat_names(a: ParsedString, b: ParsedString) -> ParsedString:
    """Concatenate two email names; the domain comes from the left value.

    Names are drawn from an alphabet closed under concatenation, so the
    result is an email of the left value's exact type by construction.
    """
    _expect(a, Email, "concat_names")
    _expect(b, Email, "concat_names")
    joined = a.structure.__replace__(name=a.structure.name + b.structure.name)
    return from_structure(a.registry, a.type_name, joined)


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
    _expect(e, Email, "append_to_name")
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
    a closure violation.
    """
    _expect(a, CssUnit, "add_units")
    _expect(b, CssUnit, "add_units")
    ua, ub = a.structure, b.structure
    if ua.unit == "auto" or ub.unit == "auto":
        return Err(OpError(
            ErrorKind.INCOMPATIBLE, "auto has no numeric value to add"))
    value = ua.value + ub.value * (_CM_PER_UNIT[ub.unit] / _CM_PER_UNIT[ua.unit])
    if value == math.inf:
        return Err(OpError(
            ErrorKind.CLOSURE, f"the sum overflows a float in {ua.unit}"))
    return Ok(from_structure(a.registry, a.type_name, CssUnit(value, ua.unit)))


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
