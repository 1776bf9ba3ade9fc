import random

import pytest

from generators import accepted_strings, gen_expr_tree
from strtype.builtins import (
    Add,
    Const,
    CssUnit,
    Mult,
    build_registry,
    expr_text,
)
from strtype.combinators import pattern
from strtype.core import (
    Err,
    ErrorKind,
    Ok,
    UnknownFieldError,
    field_checks,
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

    def test_rejects_non_trees(self):
        with pytest.raises(TypeError):
            sub_expressions("3 + 4")

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
