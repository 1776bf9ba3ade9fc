import math
import random

import pytest

from generators import accepted_strings, gen_expr_tree
from reference_casts import cast_colour, cast_email, cast_unit
from strtype.builtins import (
    _CM_PER_UNIT,
    _COLOUR,
    _EMAIL,
    Add,
    Const,
    CssColour,
    CssUnit,
    Email,
    Mult,
    build_registry,
    expr_text,
)
from strtype.combinators import pattern
from strtype.core import (
    Err,
    ErrorKind,
    InvalidStructureError,
    Ok,
    StringType,
    TypeRegistry,
    UnknownFieldError,
    field_checks,
    from_structure,
    reset_field_checks,
    subtype,
)
from strtype.ops import (
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


@pytest.fixture(scope="module")
def reg():
    return build_registry()


@pytest.fixture(autouse=True)
def _fresh_counter():
    reset_field_checks()
    yield


def ok(reg, type_name, raw):
    result = reg.from_raw(type_name, raw)
    assert isinstance(result, Ok), (type_name, raw, result)
    return result.value


class TestBlend:
    def test_additive(self, reg):
        mixed = blend(ok(reg, "CssColour", "#101010"),
                      ok(reg, "CssColour", "#202020"))
        assert mixed.cast() == "#303030"
        assert mixed.type_name == "CssColour"
        assert mixed.strict_eq(ok(reg, "CssColour", "#303030"))

    def test_channels_saturate(self, reg):
        mixed = blend(ok(reg, "CssColour", "#ff00ff"),
                      ok(reg, "CssColour", "#20ff00"))
        assert mixed.cast() == "#ffffff"

    def test_short_form_inputs(self, reg):
        mixed = blend(ok(reg, "CssColour", "#111"),
                      ok(reg, "CssColour", "#222"))
        assert mixed.structure.red == 0x11 + 0x22
        assert mixed.cast() == "#333333"

    def test_rejects_other_types(self, reg):
        with pytest.raises(TypeError):
            blend(ok(reg, "CssColour", "#111"), ok(reg, "CssUnit", "3px"))

    def test_results_stay_colours(self, reg):
        rng = random.Random(401)
        raws = accepted_strings("CssColour", 400, seed=402)
        for _ in range(200):
            a = ok(reg, "CssColour", rng.choice(raws))
            b = ok(reg, "CssColour", rng.choice(raws))
            mixed = blend(a, b)
            again = ok(reg, "CssColour", mixed.cast())
            assert again.strict_eq(mixed)


class TestConcatNames:
    def test_left_domain_wins(self, reg):
        joined = concat_names(ok(reg, "Email", "foo@bar.com"),
                              ok(reg, "Email", "bax@bar.com"))
        assert joined.cast() == "foobax@bar.com"
        assert joined.type_name == "Email"
        assert joined.structure.name == "foobax"

    def test_differing_domains(self, reg):
        joined = concat_names(ok(reg, "Email", "x@aaa.com"),
                              ok(reg, "Email", "y@bbb.org"))
        assert joined.cast() == "xy@aaa.com"

    def test_left_type_is_kept(self, reg):
        joined = concat_names(ok(reg, "Gmail", "a@gmail.com"),
                              ok(reg, "Email", "b@bar.com"))
        assert joined.type_name == "Gmail"
        assert joined.cast() == "ab@gmail.com"

    def test_raw_concat_is_untyped(self, reg):
        a = ok(reg, "Email", "foo@bar.com")
        b = ok(reg, "Email", "bax@bar.com")
        glued = raw_concat(a, b)
        assert glued == "foo@bar.combax@bar.com"
        assert isinstance(glued, str)
        assert isinstance(reg.from_raw("Email", glued), Err)

    def test_results_stay_emails(self, reg):
        rng = random.Random(403)
        raws = accepted_strings("Email", 400, seed=404)
        for _ in range(200):
            a = ok(reg, "Email", rng.choice(raws))
            b = ok(reg, "Email", rng.choice(raws))
            joined = concat_names(a, b)
            assert ok(reg, "Email", joined.cast()).strict_eq(joined)


class TestAppendToName:
    def test_appends_and_keeps_subtype(self, reg):
        result = append_to_name(ok(reg, "Gmail", "foo@gmail.com"), "bar")
        assert isinstance(result, Ok)
        value = result.value
        assert value.type_name == "Gmail"
        assert value.raw_text() == "foobar@gmail.com"
        assert value.cast() == "foobar@gmail.com"
        assert value.structure.name == "foobar"

    def test_checks_exactly_one_field(self, reg):
        e = ok(reg, "Gmail", "foo@gmail.com")
        reset_field_checks()
        append_to_name(e, "bar")
        assert field_checks() == 1

    def test_later_spans_shift(self, reg):
        value = append_to_name(ok(reg, "Email", "foo@bar.com"), "xy").value
        assert value.spans["name"] == (0, 5)
        assert value.spans["domain_left"] == (6, 9)
        assert value.spans["domain_right"] == (10, 13)
        reparsed = ok(reg, "Email", value.raw_text())
        assert reparsed.spans == value.spans

    def test_bad_suffix_is_a_closure_violation(self, reg):
        e = ok(reg, "Email", "foo@bar.com")
        result = append_to_name(e, "b@r")
        assert isinstance(result, Err)
        assert result.error.kind is ErrorKind.CLOSURE
        assert result.error.field == "name"
        assert e.raw_text() == "foo@bar.com"

    def test_every_name_recognizer_on_the_chain_is_checked(self):
        # Email's name pattern rejects "AB!" and Shouty's rejects "ABc";
        # each is checked, Email's first.
        reg = build_registry()
        reg.register(subtype(reg.get("Email"), "Shouty", name=pattern("[A-Z!]+")))
        shouty = ok(reg, "Shouty", "AB@x.com")
        for suffix, checks in (("!", 1), ("c", 2)):
            assert isinstance(reg.from_raw("Shouty", f"AB{suffix}@x.com"), Err)
            reset_field_checks()
            result = append_to_name(shouty, suffix)
            assert isinstance(result, Err), suffix
            assert result.error.kind is ErrorKind.CLOSURE
            assert field_checks() == checks
        reset_field_checks()
        assert append_to_name(shouty, "C").value.cast() == "ABC@x.com"
        assert field_checks() == 2

    def test_empty_suffix_is_identity(self, reg):
        e = ok(reg, "Email", "foo@bar.com")
        result = append_to_name(e, "")
        assert isinstance(result, Ok)
        assert result.value.strict_eq(e)
        assert field_checks() == 1

    SUFFIX_CHARS = "aZ09@.-_!\u00e9\n "

    def test_agrees_with_parsing_the_spliced_text(self):
        """``append_to_name(v, s)`` is ``Ok`` exactly when ``from_raw`` of
        the spliced text is, and then gives the value it gives."""
        reg = build_registry()
        reg.register(subtype(reg.get("Email"), "Shouty", name=pattern("[A-Z!]+")))
        rng = random.Random("append-to-name")
        values = [ok(reg, name, raw) for name in ("Email", "Gmail")
                  for raw in accepted_strings(name, 150)]
        for raw in accepted_strings("Email", 150):
            shouty = reg.from_raw("Shouty", raw.upper())
            if isinstance(shouty, Ok):
                values.append(shouty.value)
        assert sum(v.type_name == "Shouty" for v in values) >= 10
        verdicts = {Ok: 0, Err: 0}
        for v in values:
            for _ in range(4):
                s = "".join(rng.choice(self.SUFFIX_CHARS) for _ in range(rng.randint(0, 3)))
                end = v.spans["name"][1]
                want = reg.from_raw(v.type_name, v.raw[:end] + s + v.raw[end:])
                got = append_to_name(v, s)
                assert type(got) is type(want), (v.type_name, v.raw, s)
                verdicts[type(got)] += 1
                if isinstance(got, Ok):
                    assert type(got.value) is type(want.value)
                    assert got.value.structure == want.value.structure
                    assert got.value.spans == want.value.spans
                    assert got.value.raw == want.value.raw
        assert min(verdicts.values()) >= 100, verdicts


def colour_mix(a, b):
    return CssColour(min(255, a.red + b.red), min(255, a.green + b.green),
                     min(255, a.blue + b.blue))


def joined_names(a, b):
    return Email(a.name + b.name, a.domain_left, a.domain_right)


def unit_sum(a, b):
    """The structure ``add_units`` builds, or the kind of its ``Err``."""
    if "auto" in (a.unit, b.unit):
        return ErrorKind.INCOMPATIBLE
    if a.unit not in _CM_PER_UNIT or b.unit not in _CM_PER_UNIT:
        raise InvalidStructureError(f"{a.unit!r} or {b.unit!r} is not a unit of length")
    scale = 1.0 if a.unit == b.unit else _CM_PER_UNIT[b.unit] / _CM_PER_UNIT[a.unit]
    value = a.value + b.value * scale
    return ErrorKind.CLOSURE if value == math.inf else CssUnit(value, a.unit)


def built(reg, type_name, structure, cast):
    """What ``from_structure`` gives, with the reference ``cast`` in place
    of the type's printer: the value parsed from the cast, if it gives back
    ``structure``."""
    try:
        raw = cast(structure)
    except (AttributeError, TypeError, ValueError) as error:
        raise InvalidStructureError(f"{structure!r} has no rendering") from error
    result = reg.from_raw(type_name, raw)
    if isinstance(result, Err) or result.value.structure != structure:
        raise InvalidStructureError(f"{raw!r} is not {structure!r} as a {type_name}")
    return result.value


def raised(f):
    """``f()``, or the class of what it raised."""
    try:
        return f()
    except Exception as error:  # the class is the outcome compared
        return type(error)


class TestAgainstFromStructure:
    """Each op that builds a value gives what ``from_structure`` gives for the
    structure it computes, spans in the same order, or raises what it
    raises: on subtypes that restrict a rewritten field, and on hand-built
    operands whose fields leave the language. The expected value comes from
    the root's reference cast (``built``), not from the printer the ops use."""

    @pytest.fixture(scope="class")
    def sub_reg(self):
        reg = build_registry()
        reg.register(subtype(reg.get("Email"), "ShortName", name=pattern("[a-z]{1,3}")))
        reg.register(subtype(reg.get("CssColour"), "DimRed", red=pattern("[0-7][0-9a-f]")))
        reg.register(subtype(reg.get("CssUnit"), "Small", value=pattern("[0-9]{1,2}(\\.[0-9]+)?")))
        return reg

    @staticmethod
    def values(reg, type_name, raws):
        results = (reg.from_raw(type_name, raw) for raw in raws)
        return [r.value for r in results if isinstance(r, Ok)]

    @staticmethod
    def hand_built(reg, type_name, structures):
        cls = reg.value_class(type_name)
        return [cls(structure, {}, "") for structure in structures]

    def pools(self, reg, rng):
        """Left and right operands per op, each of a type the op declares."""
        colours = accepted_strings("CssColour", 300, seed=409)
        emails = accepted_strings("Email", 300, seed=410)
        units = accepted_strings("CssUnit", 300, seed=411) + ["1" + "0" * 308 + "pc"] * 20
        short = [f"{rng.choice(['a', 'bc', 'xyz'])}@{raw.split('@')[1]}" for raw in emails[:100]]
        small = [f"{rng.randint(0, 120)}.{rng.randint(0, 9)}{rng.choice(['px', 'cm'])}"
                 for _ in range(100)]
        odd_colours = self.hand_built(reg, "CssColour", [
            CssColour(-rng.randint(1, 300), rng.randint(0, 255), rng.randint(0, 255))
            for _ in range(30)])
        odd_emails = self.hand_built(reg, "Email", [
            Email(rng.choice(["a@b", "@", "x@"]), "d", "e") for _ in range(15)] + [
            Email("n", "d.e", "f") for _ in range(15)])
        odd_units = self.hand_built(reg, "CssUnit", [
            CssUnit(rng.randint(0, 50) / 4, "em") for _ in range(30)])
        colour_pool = self.values(reg, "CssColour", colours) + odd_colours
        email_pool = self.values(reg, "Email", emails) + odd_emails
        unit_pool = self.values(reg, "CssUnit", units) + odd_units
        return {
            blend: (colour_pool + self.values(reg, "DimRed", colours), colour_pool, colour_mix,
                    cast_colour),
            concat_names: (email_pool + self.values(reg, "Gmail", accepted_strings("Gmail", 100))
                           + self.values(reg, "ShortName", short), email_pool, joined_names,
                           cast_email),
            add_units: (unit_pool + self.values(reg, "PxOrAuto", units)
                        + self.values(reg, "Small", small), unit_pool, unit_sum, cast_unit),
        }

    def test_each_result_is_what_from_structure_gives(self, sub_reg):
        rng = random.Random("ops-against-from-structure")
        seen = {}
        for op, (lefts, rights, make, cast) in self.pools(sub_reg, rng).items():
            for _ in range(3500):
                a, b = rng.choice(lefts), rng.choice(rights)
                got = raised(lambda: op(a, b))
                want = raised(lambda: make(a.structure, b.structure))
                if isinstance(want, ErrorKind):
                    assert isinstance(got, Err) and got.error.kind is want, (a, b, got)
                    outcome = want
                else:
                    if not isinstance(want, type):
                        want = raised(lambda: built(sub_reg, a.type_name, want, cast))
                    if isinstance(got, Ok):
                        got = got.value
                    if isinstance(want, type):
                        assert got is want, (op.__name__, a, b, got)
                        outcome = want
                    else:
                        assert (type(got), got.structure, list(got.spans.items()), got.raw) == (
                            type(want), want.structure, list(want.spans.items()), want.raw), (a, b)
                        outcome = "ok"
                key = (op.__name__, a.type_name, outcome)
                seen[key] = seen.get(key, 0) + 1
        for key in [("blend", "CssColour", "ok"), ("blend", "DimRed", "ok"),
                    ("blend", "DimRed", InvalidStructureError),
                    ("blend", "CssColour", InvalidStructureError),
                    ("concat_names", "Email", "ok"), ("concat_names", "Gmail", "ok"),
                    ("concat_names", "ShortName", InvalidStructureError),
                    ("concat_names", "Email", InvalidStructureError),
                    ("add_units", "CssUnit", "ok"), ("add_units", "PxOrAuto", "ok"),
                    ("add_units", "Small", "ok"), ("add_units", "Small", InvalidStructureError),
                    ("add_units", "CssUnit", InvalidStructureError),
                    ("add_units", "CssUnit", ErrorKind.INCOMPATIBLE),
                    ("add_units", "CssUnit", ErrorKind.CLOSURE)]:
            assert seen.get(key, 0) >= 3, (key, seen)


class TestOperandTypes:
    """Each op takes values of the builtin type it declares, or of a subtype."""

    def test_another_type_over_the_same_structure_is_refused(self, reg):
        other = build_registry()
        other.register(StringType("Paint", _COLOUR, cast_colour))
        paint = ok(other, "Paint", "#102030")
        with pytest.raises(TypeError, match="blend needs a CssColour value, got Paint"):
            blend(paint, ok(other, "CssColour", "#000"))
        with pytest.raises(TypeError):
            blend(ok(other, "CssColour", "#000"), paint)

    def test_a_registry_whose_type_is_not_the_builtin_one_is_refused(self):
        reg = TypeRegistry()
        reg.register(StringType("Email", _EMAIL, lambda e: f"{e.name}@{e.domain_left}"))
        e = ok(reg, "Email", "a@b.c")
        for op in (concat_names, lambda a, b: append_to_name(a, "x")):
            with pytest.raises(TypeError):
                op(e, e)

    def test_a_subtype_that_a_result_leaves_raises(self):
        reg = build_registry()
        reg.register(subtype(reg.get("Email"), "ShortName", name=pattern("[a-z]{1,3}")))
        a, b = ok(reg, "ShortName", "abc@x.yz"), ok(reg, "ShortName", "def@x.yz")
        with pytest.raises(InvalidStructureError, match="field 'name' expected"):
            concat_names(a, b)
        with pytest.raises(InvalidStructureError):
            from_structure(reg, "ShortName", joined_names(a.structure, b.structure))


class TestProjectField:
    def test_email_name(self, reg):
        got = project_field(ok(reg, "Email", "someone@email.com"), "name")
        assert got == Projection("someone", "Email", "name")

    def test_path_fields(self, reg):
        p = ok(reg, "FilePath", "/home/user/notes.txt")
        assert project_field(p, "dirs").value == ("home", "user")
        assert project_field(p, "ext").value == "txt"
        assert project_field(ok(reg, "FilePath", "notes"), "ext").value is None

    def test_opaque_raw(self, reg):
        got = project_field(ok(reg, "Sanitised", "a b.c"), "raw")
        assert got == Projection("a b.c", "Sanitised", "raw")

    def test_unknown_field(self, reg):
        with pytest.raises(UnknownFieldError):
            project_field(ok(reg, "Email", "a@b.c"), "domain")

    def test_projected_name_is_not_an_email(self, reg):
        name = project_field(ok(reg, "Email", "someone@email.com"), "name").value
        assert isinstance(reg.from_raw("Email", name), Err)

    def test_only_declared_fields_project(self, reg):
        # Expr declares no fields, as ``strtype extract --type Expr`` reports,
        # although its tree nodes have attributes called l and r.
        with pytest.raises(UnknownFieldError):
            project_field(ok(reg, "Expr", "1+2"), "l")

    def test_subtype_projects_its_parents_fields(self, reg):
        got = project_field(ok(reg, "Gmail", "someone@gmail.com"), "name")
        assert got == Projection("someone", "Gmail", "name")


class TestToCentimetres:
    def test_auto_has_no_length(self, reg):
        with pytest.raises(ValueError, match="auto"):
            to_centimetres(ok(reg, "CssUnit", "auto").structure)


class TestAddUnits:
    def test_left_unit_wins(self, reg):
        total = add_units(ok(reg, "CssUnit", "1pc"), ok(reg, "CssUnit", "16px"))
        assert isinstance(total, Ok)
        assert total.value.cast() == "2pc"

    def test_points_into_pixels(self, reg):
        total = add_units(ok(reg, "CssUnit", "10px"), ok(reg, "CssUnit", "10pt"))
        assert total.value.structure == CssUnit(23.333333333333332, "px")

    def test_same_unit(self, reg):
        total = add_units(ok(reg, "CssUnit", "1.5cm"), ok(reg, "CssUnit", "0.25cm"))
        assert total.value.cast() == "1.75cm"

    @pytest.mark.parametrize("a,b", [("auto", "3px"), ("3px", "auto"),
                                     ("auto", "auto")])
    def test_auto_has_no_sum(self, reg, a, b):
        result = add_units(ok(reg, "CssUnit", a), ok(reg, "CssUnit", b))
        assert isinstance(result, Err)
        assert result.error.kind is ErrorKind.INCOMPATIBLE

    @pytest.mark.parametrize("unit", ["px", "pc"])
    def test_a_sum_beyond_a_float_is_a_closure_violation(self, reg, unit):
        big = "1" + "0" * 308  # 1e308, a float's largest power of ten
        result = add_units(ok(reg, "CssUnit", big + "px"), ok(reg, "CssUnit", big + unit))
        assert isinstance(result, Err)
        assert result.error.kind is ErrorKind.CLOSURE

    def test_a_tiny_sum_keeps_its_digits(self, reg):
        tiny = ok(reg, "CssUnit", "0.000000000000000001px")
        total = add_units(tiny, ok(reg, "CssUnit", "0px"))
        assert isinstance(total, Ok), total
        assert total.value.structure == CssUnit(1e-18, "px")

    @pytest.mark.parametrize("left,right", [("em", "px"), ("px", "em"), ("em", "em")])
    def test_a_hand_built_unit_that_is_no_length_raises(self, reg, left, right):
        cls = reg.value_class("CssUnit")
        a, b = cls(CssUnit(1.0, left), {}, ""), cls(CssUnit(2.0, right), {}, "")
        with pytest.raises(InvalidStructureError):
            add_units(a, b)

    def test_subtype_results_keep_their_type(self, reg):
        total = add_units(ok(reg, "PxOrAuto", "2px"), ok(reg, "CssUnit", "1pc"))
        assert total.value.type_name == "PxOrAuto"
        assert total.value.cast() == "18px"

    def test_commutative_up_to_conversion(self, reg):
        rng = random.Random(405)
        units = ["px", "pt", "pc", "cm"]
        for _ in range(1000):
            a = ok(reg, "CssUnit",
                   f"{rng.randint(0, 5000)/10}{rng.choice(units)}")
            b = ok(reg, "CssUnit",
                   f"{rng.randint(0, 5000)/10}{rng.choice(units)}")
            ab = add_units(a, b).value.structure
            ba = add_units(b, a).value.structure
            assert abs(to_centimetres(ab) - to_centimetres(ba)) <= 1e-9


class TestSubExpressions:
    def test_preorder_with_self_first(self, reg):
        tree = ok(reg, "Expr", "3 * 4 + 5").structure
        subs = sub_expressions(tree)
        assert subs[0] == tree
        assert subs == [tree, Mult(Const(3), Const(4)), Const(3), Const(4),
                        Const(5)]
        assert expr_text(subs[1]) == "3 * 4"

    def test_const_projects_to_itself(self):
        assert sub_expressions(Const(7)) == [Const(7)]

    def test_every_subtree_reparses(self, reg):
        rng = random.Random(406)
        for _ in range(60):
            tree = gen_expr_tree(rng, rng.randint(0, 5))
            for sub in sub_expressions(tree):
                again = ok(reg, "Expr", expr_text(sub))
                assert again.structure == sub

    def test_closed_under_projection(self):
        rng = random.Random(407)
        for _ in range(40):
            tree = gen_expr_tree(rng, 4)
            subs = sub_expressions(tree)
            for sub in subs:
                for deeper in sub_expressions(sub):
                    assert deeper in subs

    def test_walks_subclasses_of_the_nodes(self, reg):
        class Sum(Add):
            __slots__ = ()

        class Product(Mult):
            __slots__ = ()

        class Leaf(Const):
            __slots__ = ()

        tree = Mult(Sum(Const(1), Leaf(2)), Sum(Product(Const(3), Const(4)), Const(5)))
        subs = sub_expressions(tree)
        assert subs == [tree, tree.l, Const(1), Leaf(2), tree.r, tree.r.l,
                        Const(3), Const(4), Const(5)]
        assert [sub.__class__ for sub in subs[:6]] == [Mult, Sum, Const, Leaf, Sum, Product]
        assert expr_text(tree) == "(1 + 2) * (3 * 4 + 5)"
        assert expr_text(Sum(Const(1), Sum(Const(2), Const(3)))) == "1 + (2 + 3)"
        assert ok(reg, "Expr", expr_text(tree)).structure == Mult(
            Add(Const(1), Const(2)), Add(Mult(Const(3), Const(4)), Const(5)))

    def test_rejects_non_trees(self):
        with pytest.raises(TypeError):
            sub_expressions("3 + 4")

    @pytest.mark.parametrize("tree", ["3 + 4", 7, None])
    def test_rendering_rejects_non_trees(self, tree):
        with pytest.raises(TypeError, match="not an expression tree"):
            expr_text(tree)

    def test_long_flat_sum(self):
        # Left-deep, as chain_left builds "0 + 1 + ... + 4999".
        consts = [Const(i) for i in range(5000)]
        sums = [consts[0]]
        for c in consts[1:]:
            sums.append(Add(sums[-1], c))
        subs = sub_expressions(sums[-1])
        assert len(subs) == 2 * len(consts) - 1
        assert all(a is b for a, b in zip(subs, sums[:0:-1] + consts))

    def test_deep_right_spine(self):
        tree, spine = Const(0), []
        for i in range(1, 5000):
            tree = Mult(Const(i), tree)
            spine.append(tree)
        subs = sub_expressions(tree)
        assert len(subs) == 2 * len(spine) + 1
        for depth, node in enumerate(reversed(spine)):
            assert subs[2 * depth] is node
            assert subs[2 * depth + 1] is node.l
        assert subs[-1] is spine[0].r


class TestNormalize:
    @pytest.mark.parametrize("type_name,raw,want", [
        ("USPhone", "555.211.1234", "555-211-1234"),
        ("USPhone", "5552111234", "555-211-1234"),
        ("CssColour", "#1A2B3C", "#1a2b3c"),
        ("Expr", "(3*4)+5", "3 * 4 + 5"),
        ("CssUnit", "007px", "7px"),
    ])
    def test_canonical_form(self, reg, type_name, raw, want):
        assert normalize(ok(reg, type_name, raw)) == want

    def test_idempotent(self, reg):
        for type_name in reg.names():
            for raw in accepted_strings(type_name, 40, seed=408):
                first = normalize(ok(reg, type_name, raw))
                assert normalize(ok(reg, type_name, first)) == first
