"""strtype: parse strings into typed structures once, then work on the structures.

A string type couples a grammar with a structure and a canonical surface
form. Parsing a raw string yields a ``ParsedString`` that remembers its
structure, the span each field consumed, and the original text;
operations, comparisons, narrowing to subtypes and rendering all work on
that value instead of on bare strings.

Most uses want ``default_registry()`` (the builtin catalogue, frozen) or
``build_registry()`` (the same catalogue, still open for registration).
"""

from .builtins import (
    Add,
    Const,
    CssColour,
    CssUnit,
    Email,
    EqualAandB,
    Expr,
    FilePath,
    InnerR,
    Mult,
    USPhone,
    build_registry,
    expr_text,
    register_builtins,
)
from .combinators import Failure, NontermError, Parser, Success
from .core import (
    DuplicateTypeError,
    Err,
    ErrorKind,
    InvalidStructureError,
    NotASubtypeError,
    NotASupertypeError,
    Ok,
    Opaque,
    OpError,
    ParsedString,
    ParseError,
    RegistryError,
    RegistryFrozenError,
    StringType,
    TypeRegistry,
    UnknownFieldError,
    UnknownParentError,
    UnknownTypeError,
    field_checks,
    from_structure,
    opaque_type,
    reset_field_checks,
    subtype,
)
from .ops import (
    Projection,
    add_units,
    append_to_name,
    blend,
    concat_names,
    normalize,
    project_field,
    raw_concat,
    sub_expressions,
    to_centimetres,
)

__all__ = [
    "Add", "Const", "CssColour", "CssUnit", "DuplicateTypeError", "Email",
    "EqualAandB", "Err", "ErrorKind", "Expr", "Failure", "FilePath",
    "InnerR", "InvalidStructureError", "Mult", "NontermError",
    "NotASubtypeError", "NotASupertypeError", "Ok", "OpError", "Opaque",
    "ParseError", "ParsedString", "Parser", "Projection", "RegistryError",
    "RegistryFrozenError", "StringType", "Success", "TypeRegistry",
    "USPhone", "UnknownFieldError", "UnknownParentError",
    "UnknownTypeError", "add_units", "append_to_name", "blend",
    "build_registry", "concat_names", "default_registry", "expr_text",
    "field_checks", "from_raw", "from_structure", "normalize",
    "opaque_type", "project_field", "raw_concat", "register_builtins",
    "reset_field_checks", "sub_expressions", "subtype", "to_centimetres",
]

__version__ = "0.1.0"

_default: TypeRegistry | None = None


def default_registry() -> TypeRegistry:
    """The builtin catalogue, built once and frozen against registration."""
    global _default
    if _default is None:
        reg = build_registry()
        reg.freeze()
        _default = reg
    return _default


def from_raw(type_name: str, raw: str) -> Ok | Err:
    """Parse ``raw`` as a builtin type from the default registry."""
    return default_registry().from_raw(type_name, raw)
