"""Operations that stay inside the typed-string model.

Each operation takes parsed values (or expression trees) and produces
results that are guaranteed, or checked, to stay in their type's language.
``blend``, ``concat_names`` and ``add_units`` take values of the builtin
type they declare (or a subtype), compute the result's structure, print
it with that root's ``layout``, and check each field's text as
``append_to_name`` checks one. In each of these roots no text a field
accepts runs on into the part after it (two hex digits; a name without
``@``; a left domain without ``.``; digits before a unit's letters), so
the texts split back at the printed spans, and a result is what their
oracle :func:`~strtype.core.from_structure` gives, with no parse, or
raises as it does. Appending arbitrary text re-checks the name and gives
``Err`` instead.
"""

from __future__ import annotations

import math
from typing import Any

from .builtins import (_CM_PER_UNIT, _COLOUR_TYPE, _EMAIL_TYPE, _UNIT_TYPE, Add, Const,
                       CssColour, CssUnit, Email, Expr, Mult)
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
    _UNPRINTABLE,
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


def _expect(declared: StringType, op: str, *values: ParsedString) -> None:
    """Require values of the type their registry registers as ``declared``."""
    for value in values:
        cls = value.registry._classes.get(declared.name)
        if cls is None or cls._descriptor is not declared or not isinstance(value, cls):
            raise TypeError(f"{op} needs a {declared.name} value, got {value.type_name}")


def _build(a: ParsedString, root: StringType, structure: Any) -> Ok:
    """``Ok`` of ``structure`` as a value of ``a``'s type, printed by ``root``,
    which reads each field back, with each field checked in ``a``'s type,
    uncounted and ancestor end first; else ``InvalidStructureError``."""
    try:
        raw, spans = root.recognizer.layout(structure)
    except _UNPRINTABLE as error:
        raise InvalidStructureError(f"{structure!r} has no {root.name} rendering") from error
    bad = _first_bad_field(a._descriptor.checks, raw, spans, check_to_end)
    if bad is not None:
        raise InvalidStructureError(f"{raw!r} is not a {a.type_name}: field {bad[0]!r} "
                                    f"expected {bad[1].expected} at {bad[1].pos}")
    return _ok(type(a), structure, spans, raw)


def blend(a: ParsedString, b: ParsedString) -> ParsedString:
    """Additive blend of two colours, saturating each channel at 255."""
    _expect(_COLOUR_TYPE, "blend", a, b)
    ca, cb = a.structure, b.structure
    return _build(a, _COLOUR_TYPE, CssColour(
        min(255, ca.red + cb.red), min(255, ca.green + cb.green),
        min(255, ca.blue + cb.blue))).value


def concat_names(a: ParsedString, b: ParsedString) -> ParsedString:
    """Concatenate two email names; the domain comes from the left value.
    Email's names are closed under concatenation; a subtype's need not be."""
    _expect(_EMAIL_TYPE, "concat_names", a, b)
    left = a.structure
    return _build(a, _EMAIL_TYPE, Email(left.name + b.structure.name, left.domain_left,
                                        left.domain_right)).value


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
    _expect(_EMAIL_TYPE, "append_to_name", e)
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
    a closure violation. A (hand-built) unit that is not a length's raises
    ``InvalidStructureError``. A length in the left unit adds unscaled."""
    _expect(_UNIT_TYPE, "add_units", a, b)
    ua, ub = a.structure, b.structure
    if ua.unit == "auto" or ub.unit == "auto":
        return Err(OpError(
            ErrorKind.INCOMPATIBLE, "auto has no numeric value to add"))
    if ua.unit not in _CM_PER_UNIT or ub.unit not in _CM_PER_UNIT:
        raise InvalidStructureError(f"{ua.unit!r} or {ub.unit!r} is not a unit of length")
    value = ua.value + ub.value * (
        1.0 if ub.unit == ua.unit else _CM_PER_UNIT[ub.unit] / _CM_PER_UNIT[ua.unit])
    if value == math.inf:
        return Err(OpError(
            ErrorKind.CLOSURE, f"the sum overflows a float in {ua.unit}"))
    return _build(a, _UNIT_TYPE, CssUnit(value, ua.unit))


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
