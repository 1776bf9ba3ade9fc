from dataclasses import dataclass

import pytest

from strtype.combinators import lit, pattern, seq, spanned
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
        field_recognizers={"left": LEFT, "right": RIGHT}))
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
        assert (hi.parent, list(hi.field_recognizers)) == ("HiPair", ["right"])

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

    def test_dropped_raw_reconstructs_through_cast(self):
        reg = TypeRegistry()
        reg.register(StringType(
            "Word", pattern("[a-z]+").map(lambda word: (word, {})), str,
            keep_raw=False))
        a = parsed(reg, "Word", "hello")
        b = parsed(reg, "Word", "hello")
        assert a.raw is None
        assert a.raw_text() == "hello"
        assert a.raw_eq(b)
        assert a.strict_eq(b)

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


class TestFieldRecognizerLookup:
    def test_resolved_through_the_chain(self, reg):
        assert reg.field_recognizer("HiNinePair", "left") is not None
        assert reg.field_recognizer("HiPair", "right") is RIGHT

    def test_nearest_override_wins(self, reg):
        hi_left = reg.field_recognizer("HiPair", "left")
        assert isinstance(hi_left.run("hi", 0).value, str)
        assert hi_left.run("ab", 0).expected == '"hi"'

    def test_unknown_field(self, reg):
        with pytest.raises(UnknownFieldError):
            reg.field_recognizer("Pair", "middle")
