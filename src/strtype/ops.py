"""Operations that stay inside the typed-string model.

Each operation takes parsed values (or expression trees) and produces
results that are guaranteed, or checked, to stay in their type's language.
Where closure holds by construction (blending colours, concatenating
alphanumeric names) no re-validation is needed; where it depends on the
data (appending arbitrary text to a name) the single affected field is
re-checked and a closure violation comes back as ``Err``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from .builtins import Add, Const, CssColour, CssUnit, Email, Expr, Mult
from .combinators import Failure
from .core import (
    Err,
    ErrorKind,
    Ok,
    OpError,
    ParsedString,
    UnknownFieldError,
    check_field,
    from_structure,
)

__all__ = [
    "Projection", "blend", "concat_names", "raw_concat", "append_to_name",
    "project_field", "add_units", "to_centimetres", "sub_expressions",
    "normalize",
]


@dataclass(frozen=True)
class Projection:
    """A field pulled out of a value, remembering where it came from."""
    value: Any
    origin_type: str
    field_name: str


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
    joined = dataclasses.replace(a.structure, name=a.structure.name + b.structure.name)
    return from_structure(a.registry, a.type_name, joined)


def raw_concat(a: ParsedString, b: ParsedString) -> str:
    """Plain string concatenation of the canonical forms; the type is gone."""
    return a.cast() + b.cast()


def append_to_name(e: ParsedString, suffix: str) -> Ok | Err:
    """Append text to an email's name, re-checking only the name field.

    The new name is checked against every recognizer for ``name`` on the
    value's type chain, ancestor end first. The rest of the value is
    untouched: the raw string is spliced around the recorded name span and
    the other spans shift. The value keeps its exact type, so appending to
    a Gmail yields a Gmail.
    """
    _expect(e, Email, "append_to_name")
    new_name = e.structure.name + suffix
    chain = [e.type_name] + e.registry.ancestors(e.type_name)
    for descriptor in map(e.registry.get, reversed(chain)):
        recognizer = descriptor.field_recognizers.get("name")
        out = None if recognizer is None else check_field(recognizer, new_name)
        if isinstance(out, Failure):
            return Err(OpError(
                ErrorKind.CLOSURE,
                f"appending {suffix!r} takes the name out of its language: "
                f"expected {out.expected}",
                field="name"))
    start, end = e.spans["name"]
    delta = len(suffix)
    raw = e.raw_text()
    spans = {"name": (start, end + delta)}
    for name, (fs, fe) in e.spans.items():
        if name != "name":
            spans[name] = (fs + delta, fe + delta) if fs >= end else (fs, fe)
    return Ok(ParsedString(
        type_name=e.type_name,
        structure=dataclasses.replace(e.structure, name=new_name),
        spans=spans,
        raw=raw[:end] + suffix + raw[end:],
        registry=e.registry,
    ))


def project_field(v: ParsedString, field_name: str) -> Projection:
    """Extract one structure field, tagged with its origin type."""
    structure = v.structure
    names = {f.name for f in dataclasses.fields(structure)}
    if field_name not in names:
        raise UnknownFieldError(
            f"type {v.type_name!r} has no field {field_name!r}")
    return Projection(getattr(structure, field_name), v.type_name, field_name)


_CM_PER_UNIT = {"px": 2.54 / 96, "pt": 2.54 / 72, "pc": 2.54 / 6, "cm": 1.0}


def to_centimetres(u: CssUnit) -> float:
    """Numeric value of a measured unit in centimetres."""
    if u.unit == "auto":
        raise ValueError("auto has no numeric value")
    return u.value * _CM_PER_UNIT[u.unit]


def add_units(a: ParsedString, b: ParsedString) -> Ok | Err:
    """Add two lengths; the result carries the left operand's unit.

    ``auto`` on either side has no numeric value to add and comes back as
    an incompatible-types error.
    """
    _expect(a, CssUnit, "add_units")
    _expect(b, CssUnit, "add_units")
    ua, ub = a.structure, b.structure
    if ua.unit == "auto" or ub.unit == "auto":
        return Err(OpError(
            ErrorKind.INCOMPATIBLE, "auto has no numeric value to add"))
    value = ua.value + ub.value * (_CM_PER_UNIT[ub.unit] / _CM_PER_UNIT[ua.unit])
    return Ok(from_structure(a.registry, a.type_name, CssUnit(value, ua.unit)))


def sub_expressions(e: Expr) -> list[Expr]:
    """Every subtree of an expression in preorder, the tree itself first.

    The walk keeps its own stack, so a long sum cannot exhaust Python's."""
    found, pending = [], [e]
    while pending:
        node = pending.pop()
        if isinstance(node, (Add, Mult)):
            pending += (node.r, node.l)
        elif not isinstance(node, Const):
            raise TypeError(f"not an expression tree: {node!r}")
        found.append(node)
    return found


def normalize(v: ParsedString) -> str:
    """The canonical surface form; parsing it back gives an equal value."""
    return v.cast()
