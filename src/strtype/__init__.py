"""strtype: parse strings into typed structures once, then work on the structures.

A string type couples a grammar with a structure and a canonical surface
form. Parsing a raw string yields a ``ParsedString`` that remembers its
structure, the span each field consumed, and the original text;
operations, comparisons, narrowing to subtypes and rendering all work on
that value instead of on bare strings.

Most uses want ``default_registry()`` (the builtin catalogue, frozen) or
``build_registry()`` (the same catalogue, still open for registration).
"""

from . import builtins, core, ops
from .builtins import *
from .combinators import Failure, NontermError, Parser, Success
from .core import *
from .ops import *

__all__ = sorted(builtins.__all__ + core.__all__ + ops.__all__ + [
    "Failure", "NontermError", "Parser", "Success", "default_registry", "from_raw"])

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
