import copy
import random
from dataclasses import dataclass

import pytest

from generators import accepted_strings
from strtype.builtins import build_registry
from strtype.combinators import lit, pattern, record, seq, spanned
from strtype.core import (
    DuplicateTypeError,
    Err,
    ErrorKind,
    InvalidStructureError,
    NotASubtypeError,
    NotASupertypeError,
    Ok,
    Opaque,
    ParsedString,
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
from strtype.ops import add_units, append_to_name, blend, concat_names


@dataclass(frozen=True)
class Pair:
    left: str
    right: str


LEFT = pattern("[a-zA-Z]+")
RIGHT = pattern("[0-9]+")


def pair_grammar(left_parser):
    """left:right with the left half lowercased into the structure."""
    return seq(spanned(left_parser), lit(":"), spanned(RIGHT)).map(
        lambda t: (
            Pair(t[0][0].lower(), t[2][0]),
            {"left": (t[0][1], t[0][2]), "right": (t[2][1], t[2][2])},
        ))


def cast_pair(p):
    return f"{p.left}:{p.right}"


def make_registry():
    reg = TypeRegistry()
    pair = reg.register(StringType(
        "Pair", pair_grammar(LEFT), cast_pair, fields=("left", "right"),
        checks=(("left", LEFT), ("right", RIGHT))))
    hi = reg.register(subtype(pair, "HiPair", left=lit("hi")))
    reg.register(subtype(hi, "HiNinePair", right=pattern("9+")))
    return reg


@pytest.fixture
def reg():
    return make_registry()


@pytest.fixture(autouse=True)
def fresh_counter():
    reset_field_checks()
    yield


def parsed(reg, type_name, raw):
    result = reg.from_raw(type_name, raw)
    assert isinstance(result, Ok), result
    return result.value


class TestRegistration:
    def test_duplicate_name(self, reg):
        with pytest.raises(DuplicateTypeError):
            reg.register(StringType("Pair", pair_grammar(LEFT), cast_pair))

    def test_unknown_parent(self, reg):
        nowhere = StringType("Nowhere", pair_grammar(LEFT), cast_pair,
                             fields=("left", "right"))
        with pytest.raises(UnknownParentError):
            reg.register(subtype(nowhere, "Orphan", left=LEFT))

    def test_a_subtype_must_extend_the_registered_parent(self, reg):
        # narrow skips as many checks as the registered parent has, so a
        # subtype declared on another "Pair" would narrow without its own.
        other = StringType("Pair", pair_grammar(LEFT), cast_pair, fields=("left", "right"))
        with pytest.raises(RegistryError):
            reg.register(subtype(other, "XPair", left=lit("x")))
        assert "XPair" not in reg
        # An equal copy of the registered parent is the same declaration.
        reg.register(subtype(copy.copy(reg.get("Pair")), "XPair", left=lit("x")))
        assert isinstance(reg.from_raw("Pair", "y:1").value.narrow("XPair"), Err)

    def test_subtype_must_override_something(self, reg):
        with pytest.raises(RegistryError):
            subtype(reg.get("Pair"), "BadSub")

    def test_override_must_name_a_parent_field(self, reg):
        # A misspelt field has no span, so its check would never run.
        with pytest.raises(UnknownFieldError):
            subtype(reg.get("Pair"), "HiPear", lfet=lit("hi"))
        assert "HiPear" not in reg

    def test_only_subtype_sets_a_parent(self, reg):
        with pytest.raises(TypeError):
            StringType("Pair2", pair_grammar(LEFT), cast_pair, parent="Pair")
        hi = reg.get("HiNinePair")
        assert hi.parent == "HiPair"
        assert [field for field, _ in hi.checks] == ["left", "right", "left", "right"]

    def test_the_name_string_is_reserved(self, reg):
        # widen("string") returns the plain canonical string, so a type of
        # that name could never be widened to.
        with pytest.raises(RegistryError):
            reg.register(opaque_type("string", "[a-z]+"))
        assert "string" not in reg

    def test_frozen_registry_rejects_registration(self, reg):
        reg.freeze()
        with pytest.raises(RegistryFrozenError):
            reg.register(opaque_type("Late", "[a-z]+"))

    def test_lookup(self, reg):
        assert reg.get("Pair").name == "Pair"
        assert "HiPair" in reg
        assert reg.names() == ["HiNinePair", "HiPair", "Pair"]
        with pytest.raises(UnknownTypeError):
            reg.get("Nope")

    def test_ancestors(self, reg):
        assert reg.ancestors("HiNinePair") == ["HiPair", "Pair"]
        assert reg.ancestors("Pair") == []
        assert reg.is_descendant("HiNinePair", "Pair")
        assert not reg.is_descendant("Pair", "HiNinePair")

    @pytest.mark.parametrize("registry, sub, raw", [
        (make_registry(), "HiPair", "hi:1"), (build_registry(), "Gmail", "me@gmail.com")])
    def test_unknown_names_in_subtype_questions(self, registry, sub, raw):
        value = registry.from_raw(sub, raw).value
        # An unknown supertype is no supertype; an unknown subtype is unknown.
        assert registry.is_descendant(sub, "Nope") is False
        with pytest.raises(UnknownTypeError):
            registry.is_descendant("Nope", registry.get(sub).parent)
        with pytest.raises(NotASupertypeError):
            value.widen("Nope")
        with pytest.raises(UnknownTypeError):
            value.narrow("Nope")
        with pytest.raises(UnknownTypeError):
            registry.value_class("Nope")


class TestDeclaredByRecord:
    """A type whose grammar is a ``record`` takes its fields and field
    recognizers from the record's named parts."""

    GRAMMAR = record(Pair, ("left", LEFT), lit(":"), ("right", RIGHT))

    def test_fields_and_recognizers_come_from_the_record(self):
        pair = StringType("Pair", self.GRAMMAR, cast_pair)
        assert pair.fields == ("left", "right")
        assert pair.checks == (("left", LEFT), ("right", RIGHT))

    def test_explicit_arguments_win(self):
        pair = StringType("Pair", self.GRAMMAR, cast_pair, ("right",), (("right", RIGHT),))
        assert (pair.fields, pair.checks) == (("right",), (("right", RIGHT),))
        bare = StringType("Pair", self.GRAMMAR, cast_pair, fields=(), checks=())
        assert (bare.fields, bare.checks) == ((), ())

    def test_a_grammar_without_parts_declares_nothing(self):
        plain = StringType("Pair", pair_grammar(LEFT), cast_pair)
        assert (plain.fields, plain.checks) == ((), ())

    def test_a_check_must_name_a_field(self):
        # A check on a field that is not declared has no span, so it would
        # never run.
        with pytest.raises(UnknownFieldError):
            StringType("Pair", pair_grammar(LEFT), cast_pair, fields=("left", "right"),
                       checks=(("left", LEFT), ("rihgt", RIGHT)))
        with pytest.raises(UnknownFieldError):
            StringType("Pair", self.GRAMMAR, cast_pair, fields=("right",))

    def test_opaque_types_check_their_raw_text(self):
        word = opaque_type("Word", "[a-z]+")
        assert word.fields == ("raw",)
        [(name, check)] = word.checks
        assert name == "raw" and check.run("ab1", 0).end == 2


class TestFromRaw:
    def test_ok_carries_structure_spans_and_raw(self, reg):
        value = parsed(reg, "Pair", "Ab:12")
        assert value.structure == Pair("ab", "12")
        assert value.spans == {"left": (0, 2), "right": (3, 5)}
        assert value.raw == "Ab:12"
        assert value.type_name == "Pair"

    def test_err_carries_position_and_expectation(self, reg):
        result = reg.from_raw("Pair", "ab:xy")
        assert isinstance(result, Err)
        assert result.error.kind is ErrorKind.PARSE
        assert result.error.parse.pos == 3
        assert result.error.parse.type_name == "Pair"

    def test_trailing_input_is_a_parse_error(self, reg):
        result = reg.from_raw("Pair", "ab:12 ")
        assert isinstance(result, Err)
        assert result.error.parse.pos == 5
        assert result.error.parse.expected == "end of input"

    def test_unknown_type_raises(self, reg):
        with pytest.raises(UnknownTypeError):
            reg.from_raw("Nope", "x")

    def test_roundtrip_and_idempotence(self, reg):
        value = parsed(reg, "Pair", "AB:9")
        again = parsed(reg, "Pair", value.cast())
        assert value.strict_eq(again)
        assert again.cast() == value.cast() == "ab:9"


class TestEqualities:
    def test_three_equalities_disagree_exactly_where_expected(self, reg):
        upper = parsed(reg, "Pair", "AB:1")
        lower = parsed(reg, "Pair", "ab:1")
        assert not upper.raw_eq(lower)
        assert upper.weak_eq(lower)
        assert upper.strict_eq(lower)

    def test_same_raw_different_types(self):
        reg = TypeRegistry()
        reg.register(opaque_type("A", "[a-z]+"))
        reg.register(opaque_type("B", "[a-z]+"))
        a = parsed(reg, "A", "abc")
        b = parsed(reg, "B", "abc")
        assert a.raw_eq(b)
        assert a.weak_eq(b)
        assert not a.strict_eq(b)

    def test_dunder_eq_is_strict(self, reg):
        a = parsed(reg, "Pair", "ab:1")
        b = parsed(reg, "Pair", "AB:1")
        c = parsed(reg, "HiPair", "hi:1")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "ab:1"


class TestNarrowWiden:
    def test_narrow_rebinds_after_checking_overrides(self, reg):
        value = parsed(reg, "Pair", "hi:99")
        result = value.narrow("HiNinePair")
        assert isinstance(result, Ok)
        narrowed = result.value
        assert narrowed.type_name == "HiNinePair"
        assert narrowed.structure == value.structure
        assert narrowed.raw == value.raw

    def test_narrow_checks_exactly_the_overridden_fields(self, reg):
        value = parsed(reg, "Pair", "hi:99")
        reset_field_checks()
        value.narrow("HiNinePair")
        assert field_checks() == 2
        reset_field_checks()
        value.narrow("HiPair")
        assert field_checks() == 1
        hi = parsed(reg, "HiPair", "hi:99")
        reset_field_checks()
        hi.narrow("HiNinePair")
        assert field_checks() == 1

    def test_narrow_to_own_type_checks_nothing(self, reg):
        value = parsed(reg, "Pair", "ab:1")
        reset_field_checks()
        assert isinstance(value.narrow("Pair"), Ok)
        assert field_checks() == 0

    def test_narrow_failure_names_field_and_absolute_position(self, reg):
        value = parsed(reg, "Pair", "ab:99")
        result = value.narrow("HiNinePair")
        assert isinstance(result, Err)
        assert result.error.field == "left"
        assert result.error.parse.pos == 0
        value = parsed(reg, "Pair", "hi:42")
        result = value.narrow("HiNinePair")
        assert isinstance(result, Err)
        assert result.error.field == "right"
        assert result.error.parse.pos == 3

    def test_narrow_respects_the_recorded_raw_not_the_structure(self, reg):
        # The structure lowercases, but narrowing re-reads the raw span.
        value = parsed(reg, "Pair", "HI:99")
        assert value.structure.left == "hi"
        result = value.narrow("HiPair")
        assert isinstance(result, Err)

    def test_narrow_unrelated_raises(self, reg):
        reg.register(opaque_type("Other", "[a-z]+"))
        value = parsed(reg, "Other", "abc")
        with pytest.raises(NotASubtypeError):
            value.narrow("Pair")
        hi = parsed(reg, "HiPair", "hi:1")
        with pytest.raises(NotASubtypeError):
            hi.narrow("Pair")  # that direction is widening

    def test_widen_rebinds_without_parsing(self, reg):
        narrow = parsed(reg, "HiNinePair", "hi:99")
        reset_field_checks()
        wide = narrow.widen("Pair")
        assert field_checks() == 0
        assert wide.type_name == "Pair"
        assert wide.structure == narrow.structure
        back = wide.narrow("HiNinePair")
        assert isinstance(back, Ok)
        assert back.value.strict_eq(narrow)

    def test_widen_to_own_type_is_the_value_itself(self, reg):
        value = parsed(reg, "HiPair", "hi:1")
        assert value.widen("HiPair") is value

    def test_widen_to_plain_string_is_the_cast(self, reg):
        value = parsed(reg, "HiPair", "hi:1")
        assert value.widen("string") == "hi:1"

    def test_widen_rejects_non_ancestors(self, reg):
        value = parsed(reg, "Pair", "ab:1")
        with pytest.raises(NotASupertypeError):
            value.widen("HiPair")


class TestOpaqueAndRawRetention:
    def test_opaque_type_keeps_raw_by_default(self):
        reg = TypeRegistry()
        reg.register(opaque_type("Word", "[a-z]+"))
        value = parsed(reg, "Word", "hello")
        assert value.structure == Opaque("hello")
        assert value.raw == "hello"
        assert value.cast() == "hello"
        assert value.spans == {"raw": (0, 5)}

    def test_bad_pattern_fails_at_construction(self):
        with pytest.raises(ValueError):
            opaque_type("Bad", "(?=x)")


class TestFromStructure:
    def test_rebuilds_spans_from_the_canonical_form(self, reg):
        value = from_structure(reg, "Pair", Pair("ab", "12"))
        assert value.raw == "ab:12"
        assert value.spans == {"left": (0, 2), "right": (3, 5)}

    def test_rejects_structures_whose_cast_does_not_parse(self, reg):
        with pytest.raises(InvalidStructureError):
            from_structure(reg, "Pair", Pair("99", "1"))

    def test_rejects_structures_that_do_not_round_trip(self, reg):
        with pytest.raises(InvalidStructureError):
            from_structure(reg, "Pair", Pair("AB", "1"))


class TestChecks:
    def test_every_field_check_ancestor_end_first(self, reg):
        assert reg.get("Pair").checks == (("left", LEFT), ("right", RIGHT))
        hi_nine = reg.get("HiNinePair")
        assert [name for name, _ in hi_nine.checks] == ["left", "right", "left", "right"]
        assert hi_nine.checks[2][1].run("hi", 0).value == "hi"
        assert hi_nine.checks[3][1].run("8", 0).expected == "/9+/"

    # Each subtype's own overrides, sorted by field name.
    OVERRIDES = {"HiPair": ["left"], "HiNinePair": ["right"], "PxOrAuto": ["unit"],
                 "Gmail": ["domain_left"], "UnixPath": ["separator"],
                 "WindowsPath": ["separator"], "HomeDotFile": ["dirs", "file_name"]}

    @pytest.mark.parametrize("registry", [make_registry(), build_registry()])
    def test_a_subtype_extends_its_parents_checks(self, registry):
        for name in registry.names():
            descriptor = registry.get(name)
            if descriptor.parent is None:
                assert name not in self.OVERRIDES
                continue
            inherited = registry.get(descriptor.parent).checks
            own = descriptor.checks[len(inherited):]
            assert descriptor.checks[:len(inherited)] == inherited
            assert [field for field, _ in own] == self.OVERRIDES[name]


def parent_chain(registry, name):
    """``name``'s chain of ``descriptor.parent`` names, nearest first."""
    chain = []
    while (name := registry.get(name).parent) is not None:
        chain.append(name)
    return chain


def walk_is_descendant(registry, sub, sup):
    return sub == sup or sup in parent_chain(registry, sub)


class TestValueClasses:
    """Each registered type has a value class that subclasses its parent's
    (or ``ParsedString``), and every value is an instance of its type's."""

    @pytest.mark.parametrize("registry", [make_registry(), build_registry()])
    def test_issubclass_agrees_with_a_walk_over_parent_names(self, registry):
        names = registry.names()
        for sub in names:
            sub_class = registry.value_class(sub)
            assert sub_class._descriptor is registry.get(sub)
            assert issubclass(sub_class, ParsedString)
            for sup in names:
                expected = walk_is_descendant(registry, sub, sup)
                assert issubclass(sub_class, registry.value_class(sup)) == expected, (sub, sup)
                assert registry.is_descendant(sub, sup) == expected, (sub, sup)
            assert registry.ancestors(sub) == parent_chain(registry, sub)

    def test_every_value_is_an_instance_of_its_types_class(self):
        reg = build_registry()
        rng = random.Random(15)

        def check(value):
            assert type(value) is reg.value_class(value.type_name), value
            return value

        names = reg.names()
        for name in names:
            # A value's type name and registry are its class's, not its own.
            cls = reg.value_class(name)
            assert (cls.type_name, cls.registry) == (name, reg)
            slots = {slot for base in cls.__mro__ for slot in getattr(base, "__slots__", ())}
            assert slots == {"structure", "spans", "raw"}, name
        samples = {name: [check(reg.from_raw(name, raw).value)
                          for raw in accepted_strings(name, 12)] for name in names}
        for name, values in samples.items():
            for value in values:
                for clone in (copy.copy(value), copy.deepcopy(value)):
                    assert check(clone) == value
                    assert (clone.type_name, clone.structure, clone.spans, clone.raw,
                            clone.registry) == (value.type_name, value.structure,
                                                value.spans, value.raw, value.registry)
                assert check(reg.value_class(name)(value.structure, value.spans,
                                                   value.raw)) == value
                for other in names:
                    if other != name and walk_is_descendant(reg, name, other):
                        wide = check(value.widen(other))
                        assert check(wide.narrow(name).value) == value
                    elif other != name and walk_is_descendant(reg, other, name):
                        narrowed = value.narrow(other)
                        if isinstance(narrowed, Ok):
                            check(narrowed.value)
        for name, op in [("CssColour", blend), ("Email", concat_names),
                         ("Gmail", concat_names), ("CssUnit", add_units),
                         ("PxOrAuto", add_units)]:
            for _ in range(12):
                result = op(rng.choice(samples[name]), rng.choice(samples[name]))
                if isinstance(result, Ok):
                    result = result.value
                if not isinstance(result, Err):
                    assert check(result).type_name == name
        for name in ("Email", "Gmail"):
            for value in samples[name]:
                assert check(append_to_name(value, "x").value).type_name == name

    def test_isinstance_guards_reject_swapped_arguments(self):
        reg = build_registry()
        gmail_class, unix_class = reg.value_class("Gmail"), reg.value_class("UnixPath")

        def forward_to(address, path):
            if not isinstance(address, gmail_class) or not isinstance(path, unix_class):
                raise TypeError("forward_to takes a Gmail and a UnixPath")
            return f"{address.cast()} > {path.cast()}"

        gmail = reg.from_raw("Gmail", "me@gmail.com").value
        path = reg.from_raw("UnixPath", "/home/me/inbox").value
        assert forward_to(gmail, path) == "me@gmail.com > /home/me/inbox"
        with pytest.raises(TypeError):
            forward_to(path, gmail)
        # A subtype's value passes; a supertype's does not.
        dot_file = reg.from_raw("HomeDotFile", "/home/.mail").value
        assert forward_to(gmail, dot_file) == "me@gmail.com > /home/.mail"
        with pytest.raises(TypeError):
            forward_to(gmail.widen("Email"), path)
        assert isinstance(gmail, reg.value_class("Email"))
        assert not isinstance(gmail, reg.value_class("UnixPath"))

    def test_classes_are_per_registry_and_equality_is_by_type_name(self):
        one, two = build_registry(), build_registry()
        assert one.value_class("Email") is not two.value_class("Email")
        a = one.from_raw("Gmail", "me@gmail.com").value
        b = two.from_raw("Gmail", "me@gmail.com").value
        assert not isinstance(b, one.value_class("Email"))
        assert a == b and a.strict_eq(b) and hash(a) == hash(b)

    def test_the_base_class_builds_no_values(self):
        # A bare ParsedString has no type name, registry or descriptor.
        value = build_registry().from_raw("Email", "me@x.com").value
        with pytest.raises(TypeError, match=r"reg\.value_class\(name\)\(\.\.\.\)"):
            ParsedString(value.structure, value.spans, value.raw)

    def test_value_classes_add_no_methods(self):
        # Wrapping narrow, cast or __hash__ on ParsedString must see every call.
        reg = build_registry()
        for name in reg.names():
            for cls in reg.value_class(name).__mro__:
                if cls is ParsedString:
                    break
                assert set(vars(cls)) <= {"_descriptor", "type_name", "registry",
                                          "__slots__", "__module__", "__doc__"}, (name, cls)
                assert cls.__slots__ == ()
                assert not [attr for attr, value in vars(cls).items()
                            if callable(value)], (name, cls)
