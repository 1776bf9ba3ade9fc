"""Registry of string types and the values parsed through them.

A string type couples a whole-string recognizer with a canonical rendering
(``cast``). Parsing a raw string through a type yields a
:class:`ParsedString`: the structure the recognizer produced, the spans each
named field consumed, and (usually) the raw string itself. Subtypes come
only from :func:`subtype`: a parent plus a recognizer for each parent field
they override. Parsing as a subtype runs the parent's parse and then those
field checks; :meth:`ParsedString.narrow` from any ancestor runs the same
checks, in the same order, against the recorded spans, and re-parses
nothing else.

Failures split two ways. Anything wrong with the configuration (an unknown
or duplicate type name, narrowing between unrelated types, a missing field)
raises a :class:`RegistryError` subclass. Anything wrong with the data
(input not accepted, an operation that would leave a type's language) comes
back as ``Err(OpError(...))`` so callers can handle it per record.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping

from .combinators import Failure, Parser, Success, pattern, record, run_to_end

__all__ = [
    "RegistryError", "DuplicateTypeError", "UnknownTypeError",
    "UnknownParentError", "NotASubtypeError", "NotASupertypeError",
    "UnknownFieldError", "RegistryFrozenError", "InvalidStructureError",
    "ErrorKind", "ParseError", "OpError", "Ok", "Err",
    "Opaque", "StringType", "ParsedString", "TypeRegistry",
    "opaque_type", "subtype", "from_structure", "field_checks",
    "reset_field_checks",
]


class RegistryError(ValueError):
    """A problem with type configuration rather than with input data."""


class DuplicateTypeError(RegistryError):
    pass


class UnknownTypeError(RegistryError):
    pass


class UnknownParentError(RegistryError):
    pass


class NotASubtypeError(RegistryError):
    pass


class NotASupertypeError(RegistryError):
    pass


class UnknownFieldError(RegistryError):
    pass


class RegistryFrozenError(RegistryError):
    pass


class InvalidStructureError(ValueError):
    """A structure whose canonical rendering its own type does not accept."""


class ErrorKind(Enum):
    PARSE = "parse_error"
    CLOSURE = "closure_violation"
    INCOMPATIBLE = "incompatible_types"


@dataclass(frozen=True)
class ParseError:
    pos: int
    expected: str
    type_name: str = ""


@dataclass(frozen=True)
class OpError:
    kind: ErrorKind
    detail: str
    parse: ParseError | None = None
    field: str | None = None


@dataclass(frozen=True)
class Ok:
    value: Any


@dataclass(frozen=True)
class Err:
    error: OpError


@dataclass(frozen=True)
class Opaque:
    """Structure of a type validated as a whole, with no inner fields."""
    raw: str


@dataclass(frozen=True)
class StringType:
    """Descriptor tying a type name to its recognizer and canonical form.

    ``recognizer`` must consume the entire input and produce a pair of the
    structure and a mapping from field names to the half-open spans those
    fields consumed. ``field_recognizers`` hold whole-field parsers for the
    fields that field-local rewrites may need to re-check. ``parent`` is
    set only by :func:`subtype`, and a subtype's ``field_recognizers`` are
    exactly its overrides, sorted by field name.
    """

    name: str
    recognizer: Parser
    cast_fn: Callable[[Any], str]
    fields: tuple[str, ...] = ()
    field_recognizers: Mapping[str, Parser] = field(default_factory=dict)
    keep_raw: bool = True
    parent: str | None = field(default=None, init=False)


_FIELD_CHECKS = 0


def field_checks() -> int:
    """How many field recognizers have run since the last reset."""
    return _FIELD_CHECKS


def reset_field_checks() -> None:
    global _FIELD_CHECKS
    _FIELD_CHECKS = 0


def check_field(recognizer: Parser, text: str):
    """Run a single field recognizer against a field's text, counted."""
    global _FIELD_CHECKS
    _FIELD_CHECKS += 1
    return run_to_end(recognizer, text)


def _first_bad_field(checks: Mapping[str, Parser], source: str,
                     spans: Mapping[str, tuple[int, int]], run):
    """Run each field's check, in order, on the text its span covers, with
    ``run``: ``run_to_end``, or the counted :func:`check_field`.

    Returns the first failing field's name and its failure, positioned in
    ``source``, or None. A field with no span has nothing to check.
    """
    for name, recognizer in checks.items():
        span = spans.get(name)
        if span is None:
            continue
        start, end = span
        out = run(recognizer, source[start:end])
        if isinstance(out, Failure):
            return name, Failure(start + out.pos, out.expected)
    return None


@dataclass(frozen=True, eq=False)
class ParsedString:
    """A raw string parsed through a registered type.

    ``spans`` maps field names to the half-open ranges of the raw string
    each field consumed. ``raw`` is None for types registered with
    ``keep_raw=False``; :meth:`raw_text` falls back to the canonical form
    then, which for such types is the only surface the value ever had.
    """

    type_name: str
    structure: Any
    spans: Mapping[str, tuple[int, int]] = field(repr=False)
    raw: str | None = field(repr=False)
    registry: "TypeRegistry" = field(repr=False)

    def descriptor(self) -> StringType:
        return self.registry.get(self.type_name)

    def cast(self) -> str:
        """Render the canonical string for this value."""
        return self.descriptor().cast_fn(self.structure)

    def raw_text(self) -> str:
        return self.raw if self.raw is not None else self.cast()

    def raw_eq(self, other: "ParsedString") -> bool:
        """Character-for-character equality of the underlying strings."""
        return self.raw_text() == other.raw_text()

    def weak_eq(self, other: "ParsedString") -> bool:
        """Equality of canonical forms; the types may differ."""
        return self.cast() == other.cast()

    def strict_eq(self, other: "ParsedString") -> bool:
        """Same type name and equal structures."""
        return self.type_name == other.type_name and self.structure == other.structure

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParsedString):
            return NotImplemented
        return self.strict_eq(other)

    def __hash__(self) -> int:
        return hash((self.type_name, self.structure))

    def narrow(self, sub_name: str) -> Ok | Err:
        """Rebind to a subtype after re-checking only the overridden fields.

        Each subtype on the chain from this value's type down to
        ``sub_name`` checks its overrides against the recorded spans, in the
        order parsing as ``sub_name`` runs them, so both routes give the
        same verdict and report. A field with no recorded span has nothing
        to re-check. Raises :class:`NotASubtypeError` when ``sub_name`` is
        not a registered descendant of this value's type.
        """
        if sub_name == self.type_name:
            return Ok(self)
        chain = self.registry.path_between(sub_name, self.type_name)
        if chain is None:
            raise NotASubtypeError(
                f"{sub_name!r} is not a subtype of {self.type_name!r}")
        raw = self.raw_text()
        for descriptor in reversed(chain):
            bad = _first_bad_field(descriptor.field_recognizers, raw,
                                   self.spans, check_field)
            if bad is not None:
                name, out = bad
                return Err(OpError(
                    ErrorKind.PARSE,
                    f"field {name!r} does not satisfy {sub_name}: expected {out.expected}",
                    parse=ParseError(out.pos, out.expected, sub_name), field=name))
        return Ok(dataclasses.replace(self, type_name=sub_name))

    def widen(self, super_name: str):
        """Rebind to a supertype; no parsing is involved.

        ``"string"`` acts as the universal supertype: widening to it returns
        the canonical plain string. Raises :class:`NotASupertypeError`
        otherwise when ``super_name`` is not an ancestor of this type.
        """
        if super_name == "string":
            return self.cast()
        if super_name == self.type_name:
            return self
        if not self.registry.is_descendant(self.type_name, super_name):
            raise NotASupertypeError(
                f"{super_name!r} is not a supertype of {self.type_name!r}")
        return dataclasses.replace(self, type_name=super_name)


class TypeRegistry:
    """Named string types with single-parent subtyping.

    Registration validates the configuration up front; after ``freeze()``
    the registry is read-only, so lookups need no locking.
    """

    def __init__(self):
        self._types: dict[str, StringType] = {}
        self._frozen = False

    def register(self, descriptor: StringType) -> StringType:
        """Add a type. Parents must be registered first, which keeps the
        parent chain acyclic by construction."""
        if self._frozen:
            raise RegistryFrozenError("registry is frozen")
        if descriptor.name in self._types:
            raise DuplicateTypeError(f"type {descriptor.name!r} already registered")
        if descriptor.parent is not None and descriptor.parent not in self._types:
            raise UnknownParentError(f"unknown parent {descriptor.parent!r}")
        self._types[descriptor.name] = descriptor
        return descriptor

    def freeze(self) -> None:
        self._frozen = True

    def get(self, name: str) -> StringType:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def names(self) -> list[str]:
        return sorted(self._types)

    def ancestors(self, name: str) -> list[str]:
        """Parent chain of ``name``, nearest first."""
        out = []
        parent = self.get(name).parent
        while parent is not None:
            out.append(parent)
            parent = self.get(parent).parent
        return out

    def is_descendant(self, sub: str, sup: str) -> bool:
        return sub == sup or sup in self.ancestors(sub)

    def path_between(self, sub: str, sup: str) -> list[StringType] | None:
        """Descriptors from ``sub`` up to but excluding ``sup``, or None."""
        path = []
        cur: str | None = sub
        while cur is not None:
            if cur == sup:
                return path
            descriptor = self.get(cur)
            path.append(descriptor)
            cur = descriptor.parent
        return None

    def field_recognizer(self, type_name: str, field_name: str) -> Parser:
        """The recognizer for a field, resolved through the parent chain."""
        for name in [type_name] + self.ancestors(type_name):
            recognizers = self.get(name).field_recognizers
            if field_name in recognizers:
                return recognizers[field_name]
        raise UnknownFieldError(
            f"type {type_name!r} has no recognizer for field {field_name!r}")

    def from_raw(self, type_name: str, raw: str) -> Ok | Err:
        """Parse ``raw`` as ``type_name``.

        Returns ``Ok(ParsedString)`` or ``Err`` carrying the parse error;
        an unregistered type name raises :class:`UnknownTypeError`.
        """
        descriptor = self.get(type_name)
        out = run_to_end(descriptor.recognizer, raw)
        if isinstance(out, Failure):
            parse = ParseError(out.pos, out.expected, type_name)
            return Err(OpError(
                ErrorKind.PARSE,
                f"not a {type_name}: expected {out.expected} at {out.pos}",
                parse=parse))
        structure, spans = out.value
        return Ok(ParsedString(
            type_name=type_name,
            structure=structure,
            spans=spans,
            raw=raw if descriptor.keep_raw else None,
            registry=self,
        ))


def from_structure(registry: TypeRegistry, type_name: str, structure: Any) -> ParsedString:
    """Build a value from an already-typed structure via its canonical form.

    The canonical rendering is parsed back once to recover field spans; a
    structure whose rendering its own type rejects, or that does not
    round-trip, raises :class:`InvalidStructureError`.
    """
    descriptor = registry.get(type_name)
    raw = descriptor.cast_fn(structure)
    result = registry.from_raw(type_name, raw)
    if isinstance(result, Err):
        raise InvalidStructureError(
            f"cast of {structure!r} is not a {type_name}: {result.error.detail}")
    if result.value.structure != structure:
        raise InvalidStructureError(
            f"cast of {structure!r} does not round-trip through {type_name}")
    return result.value


def opaque_type(name: str, pattern_source: str) -> StringType:
    """A type that validates the whole string against one pattern.

    The structure is :class:`Opaque` and the canonical form is the string
    itself. Unsupported pattern syntax raises at construction time.
    """
    return StringType(
        name=name,
        recognizer=record(Opaque, ("raw", pattern(pattern_source))),
        cast_fn=lambda opaque: opaque.raw,
        fields=("raw",),
    )


def subtype(parent: StringType, name: str, **overrides: Parser) -> StringType:
    """A subtype of ``parent`` whose named fields must also match ``overrides``.

    The only way to declare a subtype. Each override must name a field of
    the parent (:class:`UnknownFieldError` otherwise), and there must be at
    least one. The subtype keeps the parent's structure, fields and
    canonical form. Its recognizer runs the parent's and then checks each
    overridden field's span, sorted by field name, as narrowing from any
    ancestor does: input the parent rejects gets the parent's report, and
    any other rejected input gets the report of :meth:`ParsedString.narrow`.
    These checks are part of parsing and are not counted as field checks.
    """
    if not overrides:
        raise RegistryError(f"{name!r}: a subtype overrides at least one field")
    unknown = sorted(set(overrides) - set(parent.fields))
    if unknown:
        raise UnknownFieldError(
            f"{name!r}: {parent.name!r} has no field {', '.join(unknown)}")
    checks = dict(sorted(overrides.items()))
    parent_fn = parent.recognizer.fn
    def recognize(text, pos):
        out = parent_fn(text, pos)
        # Short of the end the parent's parse is rejected as it stands.
        if isinstance(out, Success) and out.end == len(text):
            bad = _first_bad_field(checks, text, out.value[1], run_to_end)
            if bad is not None:
                return bad[1]
        return out
    sub = StringType(
        name=name,
        recognizer=Parser(recognize),
        cast_fn=parent.cast_fn,
        fields=parent.fields,
        field_recognizers=checks,
        keep_raw=parent.keep_raw,
    )
    object.__setattr__(sub, "parent", parent.name)
    return sub
