"""Registry of string types and the values parsed through them.

A string type couples a whole-string recognizer with a canonical rendering
(``cast``). Parsing a raw string through a type yields a
:class:`ParsedString`: the structure the recognizer produced, the spans each
named field consumed, and the raw string itself. Subtypes come only from
:func:`subtype`: a parent plus a recognizer for each parent field they
override. Parsing as a subtype runs the parent's parse and then those
field checks; :meth:`ParsedString.narrow` from any ancestor runs the same
checks, in the same order, against the recorded spans, and re-parses
nothing else.

Registering a type gives it a value class that holds its descriptor, name
(``type_name``) and registry, and subclasses its parent's value class, or
:class:`ParsedString` for a root. Every value is an instance of its type's
class, so ``isinstance`` and ``issubclass`` are the subtype checks. Each
registry makes its own classes.

Failures split two ways. Anything wrong with the configuration (an unknown
or duplicate type name, narrowing between unrelated types, a missing field)
raises a :class:`RegistryError` subclass. Anything wrong with the data
(input not accepted, an operation that would leave a type's language) comes
back as ``Err(OpError(...))`` so callers can handle it per record.

Every record this module defines is a frozen slotted record
(``patterns.FrozenRecord``), which costs less to define at import than a
dataclass. Structures, such as :class:`Opaque`, are ``patterns.Structure``
records: callers can still list their fields with ``dataclasses.fields``
and ``dataclasses.replace`` one, and the first such call imports
:mod:`dataclasses`. The other records (:class:`ParseError`,
:class:`OpError`, :class:`Ok`, :class:`Err`, :class:`StringType` and
:class:`ParsedString`) are not structures; ``dataclasses.replace`` does not
accept them.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Mapping

from .combinators import Failure, Parser, Success, pattern, record, run_to_end
from .patterns import FrozenRecord, Structure, _set

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


class ParseError(FrozenRecord):
    __slots__ = ("pos", "expected", "type_name")

    def __init__(self, pos: int, expected: str, type_name: str = ""):
        _set(self, "pos", pos)
        _set(self, "expected", expected)
        _set(self, "type_name", type_name)


class OpError(FrozenRecord):
    __slots__ = ("kind", "detail", "parse", "field")

    def __init__(self, kind: ErrorKind, detail: str,
                 parse: ParseError | None = None, field: str | None = None):
        _set(self, "kind", kind)
        _set(self, "detail", detail)
        _set(self, "parse", parse)
        _set(self, "field", field)


class Ok(FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        _set(self, "value", value)


class Err(FrozenRecord):
    __slots__ = ("error",)

    def __init__(self, error: OpError):
        _set(self, "error", error)


class Opaque(Structure):
    """Structure of a type validated as a whole, with no inner fields."""

    __slots__ = ("raw",)

    def __init__(self, raw: str):
        _set(self, "raw", raw)


class StringType(FrozenRecord):
    """Descriptor tying a type name to its recognizer and canonical form.

    ``recognizer`` must consume the entire input and produce a pair of the
    structure and a mapping from field names to the half-open spans those
    fields consumed. ``checks`` holds every ``(field, recognizer)`` a value
    of this type satisfies, each a whole-field parser that field-local
    rewrites may re-run, ancestor end first. It and ``fields`` default to
    the recognizer's named ``parts``, so a ``record`` grammar declares
    them; a check that names no entry of ``fields`` raises
    :class:`UnknownFieldError`, since it could never run. ``parent`` is set
    only by :func:`subtype`, whose ``checks`` are its parent's and then its
    own overrides, sorted by field name.

    A deep copy is the descriptor itself, whose parsers are functions.
    """

    __slots__ = ("name", "recognizer", "cast_fn", "fields", "checks", "parent")
    __match_args__ = __slots__[:5]  # the constructor's arguments

    def __init__(self, name: str, recognizer: Parser, cast_fn: Callable[[Any], str],
                 fields: tuple[str, ...] | None = None,
                 checks: tuple[tuple[str, Parser], ...] | None = None):
        if fields is None:
            fields = tuple(recognizer.parts)
        if checks is None:
            checks = tuple(recognizer.parts.items())
        unknown = sorted({field for field, _ in checks} - set(fields))
        if unknown:
            raise UnknownFieldError(f"{name!r} checks {', '.join(unknown)}, not in {fields}")
        _set(self, "name", name)
        _set(self, "recognizer", recognizer)
        _set(self, "cast_fn", cast_fn)
        _set(self, "fields", fields)
        _set(self, "checks", checks)
        _set(self, "parent", None)

    def __deepcopy__(self, memo):
        return self


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


def _first_bad_field(checks, source: str,
                     spans: Mapping[str, tuple[int, int]], run):
    """Run each ``(field, recognizer)`` pair of ``checks``, in order, on the
    text the field's span covers, with ``run``: ``run_to_end``, or the
    counted :func:`check_field`.

    Returns the first failing field's name and its failure, positioned in
    ``source``, or None. A field with no span has nothing to check.
    """
    for name, recognizer in checks:
        span = spans.get(name)
        if span is None:
            continue
        start, end = span
        out = run(recognizer, source[start:end])
        if isinstance(out, Failure):
            return name, Failure(start + out.pos, out.expected)
    return None


class ParsedString(FrozenRecord):
    """A raw string parsed through a registered type.

    ``spans`` maps field names to the half-open ranges of ``raw``, the
    string that was parsed, each field consumed; ``type_name`` and
    ``registry`` come from the value's class, so building this base class
    itself raises ``TypeError``. Equal values have the same type name and
    equal structures, and the repr shows only those two. A deep copy
    copies ``structure`` and ``spans``.
    """

    __slots__ = ("structure", "spans", "raw")

    def __init__(self, structure: Any, spans: Mapping[str, tuple[int, int]], raw: str):
        if type(self) is ParsedString:
            raise TypeError("a value has its type's class: build it with "
                            "reg.value_class(name)(...)")
        _set(self, "structure", structure)
        _set(self, "spans", spans)
        _set(self, "raw", raw)

    def __repr__(self) -> str:
        return f"ParsedString(type_name={self.type_name!r}, structure={self.structure!r})"

    def descriptor(self) -> StringType:
        return self._descriptor

    def cast(self) -> str:
        """Render the canonical string for this value."""
        return self._descriptor.cast_fn(self.structure)

    def raw_text(self) -> str:
        return self.raw

    def raw_eq(self, other: "ParsedString") -> bool:
        """Character-for-character equality of the underlying strings."""
        return self.raw == other.raw

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

        Runs the entries of ``sub_name``'s ``checks`` past this value's
        type's against the recorded spans, in the order parsing as
        ``sub_name`` runs them, so both routes give the same verdict and
        report. A field with no recorded span has nothing to re-check.
        Raises :class:`NotASubtypeError` when ``sub_name`` is not a
        registered descendant of this value's type.
        """
        if sub_name == self.type_name:
            return Ok(self)
        cls = self.registry.value_class(sub_name)
        if not issubclass(cls, type(self)):
            raise NotASubtypeError(
                f"{sub_name!r} is not a subtype of {self.type_name!r}")
        bad = _first_bad_field(cls._descriptor.checks[len(self._descriptor.checks):],
                               self.raw, self.spans, check_field)
        if bad is not None:
            name, out = bad
            return Err(OpError(
                ErrorKind.PARSE,
                f"field {name!r} does not satisfy {sub_name}: expected {out.expected}",
                parse=ParseError(out.pos, out.expected, sub_name), field=name))
        return Ok(cls(self.structure, self.spans, self.raw))

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
        cls = self.registry._classes.get(super_name)
        if cls is None or not isinstance(self, cls):
            raise NotASupertypeError(
                f"{super_name!r} is not a supertype of {self.type_name!r}")
        return cls(self.structure, self.spans, self.raw)


class TypeRegistry:
    """Named string types with single-parent subtyping.

    Registration validates the configuration up front; after ``freeze()``
    the registry is read-only, so lookups need no locking.
    """

    def __init__(self):
        self._classes: dict[str, type[ParsedString]] = {}
        self._frozen = False

    def register(self, descriptor: StringType) -> StringType:
        """Add a type and its value class. Parents must be registered first,
        which keeps the parent chain acyclic by construction, and a
        subtype's ``checks`` must begin with its registered parent's, which
        ``narrow`` skips. The name ``"string"`` is reserved for the
        universal supertype."""
        if self._frozen:
            raise RegistryFrozenError("registry is frozen")
        if descriptor.name == "string":  # ``widen`` reserves it for the plain string
            raise RegistryError("type name 'string' is reserved")
        if descriptor.name in self._classes:
            raise DuplicateTypeError(f"type {descriptor.name!r} already registered")
        base = self._classes.get(descriptor.parent, ParsedString)
        if descriptor.parent is not None:
            if base is ParsedString:
                raise UnknownParentError(f"unknown parent {descriptor.parent!r}")
            inherited = base._descriptor.checks
            if descriptor.checks[:len(inherited)] != inherited:
                raise RegistryError(f"{descriptor.name!r} extends another {descriptor.parent!r}")
        self._classes[descriptor.name] = type(descriptor.name, (base,), {
            "__slots__": (), "_descriptor": descriptor,
            "type_name": descriptor.name, "registry": self})
        return descriptor

    def freeze(self) -> None:
        self._frozen = True

    def value_class(self, name: str) -> type[ParsedString]:
        """The class of ``name``'s values."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {name!r}") from None

    def get(self, name: str) -> StringType:
        return self.value_class(name)._descriptor

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def names(self) -> list[str]:
        return sorted(self._classes)

    def ancestors(self, name: str) -> list[str]:
        """Parent chain of ``name``, nearest first."""
        mro = self.value_class(name).__mro__
        return [cls._descriptor.name for cls in mro[1:mro.index(ParsedString)]]

    def is_descendant(self, sub: str, sup: str) -> bool:
        cls = self.value_class(sub)  # an unknown ``sup`` is no supertype
        return sup in self._classes and issubclass(cls, self._classes[sup])

    def from_raw(self, type_name: str, raw: str) -> Ok | Err:
        """Parse ``raw`` as ``type_name``.

        Returns ``Ok(ParsedString)`` or ``Err`` carrying the parse error;
        an unregistered type name raises :class:`UnknownTypeError`.
        """
        cls = self.value_class(type_name)
        out = run_to_end(cls._descriptor.recognizer, raw)
        if isinstance(out, Failure):
            parse = ParseError(out.pos, out.expected, type_name)
            return Err(OpError(
                ErrorKind.PARSE,
                f"not a {type_name}: expected {out.expected} at {out.pos}",
                parse=parse))
        structure, spans = out.value
        return Ok(cls(structure, spans, raw))


def from_structure(registry: TypeRegistry, type_name: str, structure: Any) -> ParsedString:
    """Build a value from an already-typed structure via its canonical form.

    The canonical rendering is parsed back once to recover field spans; a
    structure whose rendering its own type rejects, or that does not
    round-trip, raises :class:`InvalidStructureError`.
    """
    raw = registry.get(type_name).cast_fn(structure)
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
    )


def subtype(parent: StringType, name: str, /, **overrides: Parser) -> StringType:
    """A subtype of ``parent`` whose named fields must also match ``overrides``.

    The only way to declare a subtype. Each override must name a field of
    the parent (:class:`UnknownFieldError` otherwise), and there must be at
    least one. The subtype keeps the parent's structure, fields and
    canonical form, and its ``checks`` are the parent's followed by the
    overrides, sorted by field name. Wherever it runs, its recognizer runs
    the parent's and then checks each overridden field's span, in that
    order, as narrowing does: input the parent rejects or parses short of
    the end gets the parent's report, and other rejected input narrow's
    report. These checks are part of parsing and are not counted as field
    checks. ``parent`` and ``name`` are positional-only, so a field may be
    called ``name``.
    """
    if not overrides:
        raise RegistryError(f"{name!r}: a subtype overrides at least one field")
    checks = tuple(sorted(overrides.items()))
    parent_fn = parent.recognizer.fn
    def recognize(text, pos):
        out = parent_fn(text, pos)
        if isinstance(out, Success):
            bad = _first_bad_field(checks, text, out.value[1], run_to_end)
            if bad is not None:
                # Short of the end, report where ``run_to_end`` would.
                return bad[1] if out.end == len(text) else Failure(out.end, "end of input")
        return out
    sub = StringType(name, Parser(recognize), parent.cast_fn, parent.fields,
                     parent.checks + checks)
    _set(sub, "parent", parent.name)
    return sub
