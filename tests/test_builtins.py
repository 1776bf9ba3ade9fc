import copy
import dataclasses
import itertools
import pickle
import random
import sys
import zlib

import pytest

from generators import (ACCEPTED_GENERATORS, accepted_strings, gen_expr_tree,
                        render_expr_loose)
from strtype.builtins import (
    Add,
    Const,
    CssColour,
    CssUnit,
    Email,
    EqualAandB,
    FilePath,
    InnerR,
    Mult,
    USPhone,
    build_registry,
    expr_text,
)
from strtype.combinators import (Failure, Success, alt, chain_left, forward, lit, many,
                                 one_of, pattern, run_to_end, satisfy, seq, some, times)
from strtype.core import (Err, Ok, Opaque, UnknownFieldError, field_checks,
                          reset_field_checks, subtype)


@pytest.fixture(scope="module")
def reg():
    return build_registry()


def ok(reg, type_name, raw):
    result = reg.from_raw(type_name, raw)
    assert isinstance(result, Ok), (type_name, raw, result)
    return result.value


def err(reg, type_name, raw):
    result = reg.from_raw(type_name, raw)
    assert isinstance(result, Err), (type_name, raw, result)
    return result.error


class TestCssColour:
    def test_long_form(self, reg):
        value = ok(reg, "CssColour", "#f65c00")
        assert value.structure == CssColour(246, 92, 0)

    def test_short_form_doubles_each_digit(self, reg):
        # 0x11 = 17, 0x22 = 34, 0x33 = 51, worked out by hand.
        assert ok(reg, "CssColour", "#123").structure == CssColour(17, 34, 51)
        assert ok(reg, "CssColour", "#000").structure == CssColour(0, 0, 0)

    def test_case_is_normalized_into_the_structure(self, reg):
        assert ok(reg, "CssColour", "#F65C00").structure == CssColour(246, 92, 0)
        assert ok(reg, "CssColour", "#F65C00").cast() == "#f65c00"

    def test_cast_is_six_digit_lowercase_zero_padded(self, reg):
        assert ok(reg, "CssColour", "#000").cast() == "#000000"
        assert ok(reg, "CssColour", "#a0b").cast() == "#aa00bb"

    def test_equalities_across_forms(self, reg):
        short = ok(reg, "CssColour", "#000")
        long = ok(reg, "CssColour", "#000000")
        assert short.strict_eq(long)
        assert short.weak_eq(long)
        assert not short.raw_eq(long)

    def test_spans(self, reg):
        assert ok(reg, "CssColour", "#123456").spans == {
            "red": (1, 3), "green": (3, 5), "blue": (5, 7)}
        assert ok(reg, "CssColour", "#123").spans == {
            "red": (1, 2), "green": (2, 3), "blue": (3, 4)}

    @pytest.mark.parametrize("bad,pos", [
        ("#F65T00", 4),
        ("#12", 3),
        ("#1234", 4),
        ("123456", 0),
        ("#1234567", 7),
        ("", 0),
    ])
    def test_rejections_with_positions(self, reg, bad, pos):
        assert err(reg, "CssColour", bad).parse.pos == pos


class TestCssUnit:
    def test_measured_units(self, reg):
        assert ok(reg, "CssUnit", "1cm").structure == CssUnit(1.0, "cm")
        assert ok(reg, "CssUnit", "10pc").structure == CssUnit(10.0, "pc")
        assert ok(reg, "CssUnit", "1.5px").structure == CssUnit(1.5, "px")

    def test_auto(self, reg):
        assert ok(reg, "CssUnit", "auto").structure == CssUnit(None, "auto")
        assert ok(reg, "CssUnit", "auto").cast() == "auto"

    def test_cast_normalizes_numbers(self, reg):
        assert ok(reg, "CssUnit", "01cm").cast() == "1cm"
        assert ok(reg, "CssUnit", "1.50pt").cast() == "1.5pt"
        assert ok(reg, "CssUnit", "1cm").cast() == "1cm"

    @pytest.mark.parametrize("bad", ["cm", "1in", "-1px", "1 cm", "", "auto2", "1.px"])
    def test_rejections(self, reg, bad):
        err(reg, "CssUnit", bad)

    def test_px_or_auto_subtype(self, reg):
        assert ok(reg, "PxOrAuto", "16px").structure == CssUnit(16.0, "px")
        assert ok(reg, "PxOrAuto", "auto").structure == CssUnit(None, "auto")
        err(reg, "PxOrAuto", "10pc")
        err(reg, "PxOrAuto", "1cm")

    def test_narrow_unit_to_px_or_auto(self, reg):
        assert isinstance(ok(reg, "CssUnit", "16px").narrow("PxOrAuto"), Ok)
        assert isinstance(ok(reg, "CssUnit", "auto").narrow("PxOrAuto"), Ok)
        result = ok(reg, "CssUnit", "10pc").narrow("PxOrAuto")
        assert isinstance(result, Err)
        assert result.error.field == "unit"
        assert result.error.parse.pos == 2


class TestEmail:
    def test_fields(self, reg):
        value = ok(reg, "Email", "safe@mail.com")
        assert value.structure == Email("safe", "mail", "com")
        assert value.spans == {
            "name": (0, 4), "domain_left": (5, 9), "domain_right": (10, 13)}

    def test_missing_dot_is_rejected(self, reg):
        assert err(reg, "Email", "foo@bar").parse.pos == 7

    def test_multi_dot_domain(self, reg):
        value = ok(reg, "Email", "a@b.co.uk")
        assert value.structure == Email("a", "b", "co.uk")

    @pytest.mark.parametrize("bad", ["@b.c", "a@.c", "a b@c.d", "a@b", "a.b@c.d", ""])
    def test_rejections(self, reg, bad):
        err(reg, "Email", bad)

    def test_cast_is_identity_on_accepted_strings(self, reg):
        for raw in ["a@b.c", "safe@mail.com", "x9@y-z.co.uk"]:
            assert ok(reg, "Email", raw).cast() == raw

    def test_gmail_overrides_only_the_domain(self, reg):
        value = ok(reg, "Gmail", "x@gmail.com")
        assert value.structure == Email("x", "gmail", "com")
        err(reg, "Gmail", "x@hotmail.com")
        # anything Gmail accepts, Email accepts
        ok(reg, "Email", "x@gmail.com")

    def test_narrow_to_gmail(self, reg):
        good = ok(reg, "Email", "a@gmail.com")
        reset_field_checks()
        narrowed = good.narrow("Gmail")
        assert isinstance(narrowed, Ok)
        assert field_checks() == 1
        assert narrowed.value.type_name == "Gmail"

        bad = ok(reg, "Email", "a@hotmail.com")
        result = bad.narrow("Gmail")
        assert isinstance(result, Err)
        assert result.error.field == "domain_left"
        assert result.error.parse.pos == 2

    def test_widen_gmail_back_to_email(self, reg):
        value = ok(reg, "Gmail", "a@gmail.com")
        wide = value.widen("Email")
        assert wide.type_name == "Email"
        assert wide.structure == value.structure


class TestFilePath:
    def test_absolute_unix_path(self, reg):
        value = ok(reg, "FilePath", "/this/is/a/file.txt")
        assert value.structure == FilePath(
            True, ("this", "is", "a"), "file", "txt", "/")

    def test_relative_windows_path(self, reg):
        value = ok(reg, "FilePath", "dir\\file.txt")
        assert value.structure == FilePath(False, ("dir",), "file", "txt", "\\")

    def test_mixed_separators_rejected(self, reg):
        assert err(reg, "FilePath", "a/b\\c.txt").parse.pos == 3
        err(reg, "FilePath", "/a\\b")

    def test_leading_dot_file_has_no_extension(self, reg):
        value = ok(reg, "FilePath", ".bashrc")
        assert value.structure == FilePath(False, (), ".bashrc", None, "/")

    def test_trailing_dot_stays_in_the_name(self, reg):
        assert ok(reg, "FilePath", "name.").structure.file_name == "name."
        assert ok(reg, "FilePath", "name.").structure.ext is None

    def test_last_dot_splits_the_extension(self, reg):
        structure = ok(reg, "FilePath", "archive.tar.gz").structure
        assert (structure.file_name, structure.ext) == ("archive.tar", "gz")

    @pytest.mark.parametrize("bad", ["/a/b/", "//x", "", "/", "a//b"])
    def test_rejections(self, reg, bad):
        err(reg, "FilePath", bad)

    def test_spans(self, reg):
        value = ok(reg, "FilePath", "/home/.bashrc")
        assert value.spans == {
            "separator": (0, 1), "dirs": (1, 5), "file_name": (6, 13)}
        value = ok(reg, "FilePath", "a/b.txt")
        assert value.spans == {
            "separator": (1, 2), "dirs": (0, 1),
            "file_name": (2, 3), "ext": (4, 7)}

    def test_cast_is_identity_for_one_style(self, reg):
        for raw in ["/this/is/a/file.txt", "dir\\file.txt", ".bashrc", "a/b"]:
            assert ok(reg, "FilePath", raw).cast() == raw

    def test_unix_and_windows_subtypes_pin_the_separator(self, reg):
        ok(reg, "UnixPath", "/a/b.txt")
        err(reg, "UnixPath", "a\\b.txt")
        ok(reg, "WindowsPath", "a\\b.txt")
        err(reg, "WindowsPath", "/a/b.txt")

    def test_narrow_to_unix_path(self, reg):
        value = ok(reg, "FilePath", "/a/b.txt")
        reset_field_checks()
        assert isinstance(value.narrow("UnixPath"), Ok)
        assert field_checks() == 1
        result = value.narrow("WindowsPath")
        assert isinstance(result, Err)
        assert result.error.field == "separator"
        assert result.error.parse.pos == 0

    def test_narrow_through_the_chain_to_home_dot_file(self, reg):
        value = ok(reg, "FilePath", "/home/.bashrc")
        reset_field_checks()
        result = value.narrow("HomeDotFile")
        assert isinstance(result, Ok)
        assert field_checks() == 3  # separator, dirs, file_name
        assert result.value.type_name == "HomeDotFile"

    def test_narrow_to_home_dot_file_rejects_wrong_shape(self, reg):
        assert isinstance(
            ok(reg, "FilePath", "/home/x.txt").narrow("HomeDotFile"), Err)
        assert isinstance(
            ok(reg, "FilePath", "/etc/.bashrc").narrow("HomeDotFile"), Err)
        assert isinstance(
            ok(reg, "FilePath", "/home/sub/.bashrc").narrow("HomeDotFile"), Err)

    def test_home_dot_file_direct_parse(self, reg):
        value = ok(reg, "HomeDotFile", "/home/.bashrc")
        assert value.structure.file_name == ".bashrc"
        err(reg, "HomeDotFile", "/home/bashrc")
        err(reg, "HomeDotFile", "/etc/.bashrc")

    def test_separator_free_path_narrows_vacuously(self, reg):
        # A single relative segment shows no separator, so there is nothing
        # for the separator override to re-check.
        value = ok(reg, "FilePath", "x.txt")
        reset_field_checks()
        assert isinstance(value.narrow("UnixPath"), Ok)
        assert isinstance(value.narrow("WindowsPath"), Ok)
        assert field_checks() == 0


class TestUSPhone:
    def test_accepted_forms(self, reg):
        assert ok(reg, "USPhone", "555-211 1234").structure == USPhone(555, 211, 1234)
        assert ok(reg, "USPhone", "5552111234").structure == USPhone(555, 211, 1234)
        assert ok(reg, "USPhone", "555.211.1234").structure == USPhone(555, 211, 1234)

    def test_canonical_form(self, reg):
        for raw in ["555-211 1234", "5552111234", "555-211-1234", "555/211/1234"]:
            assert ok(reg, "USPhone", raw).cast() == "555-211-1234"

    def test_identifier_keeps_leading_zeros(self, reg):
        value = ok(reg, "USPhone", "555-211-0001")
        assert value.structure.uniq == 1
        assert value.cast() == "555-211-0001"

    def test_misplaced_separator_is_rejected(self, reg):
        result = err(reg, "USPhone", "55 52111 234")
        assert result.parse.pos == 0
        assert result.parse.expected == "a valid area code"

    def test_field_labels_in_errors(self, reg):
        assert err(reg, "USPhone", "155-211-1234").parse.expected == "a valid area code"
        assert err(reg, "USPhone", "555-111-1234").parse.expected == "a valid office code"
        assert err(reg, "USPhone", "555-211-123").parse.expected == "a valid identifier"

    def test_spans(self, reg):
        assert ok(reg, "USPhone", "555-211 1234").spans == {
            "area": (0, 3), "office": (4, 7), "uniq": (8, 12)}


class TestEqualAandB:
    def test_counts(self, reg):
        assert ok(reg, "EqualAandB", "aaabbb").structure == EqualAandB(3)
        assert ok(reg, "EqualAandB", "").structure == EqualAandB(0)
        assert ok(reg, "EqualAandB", "ab").structure == EqualAandB(1)

    @pytest.mark.parametrize("bad", ["aab", "ba", "abb", "b", "aabbc", "aba"])
    def test_rejections(self, reg, bad):
        err(reg, "EqualAandB", bad)

    def test_cast(self, reg):
        assert ok(reg, "EqualAandB", "aaabbb").cast() == "aaabbb"

    def test_raw_is_dropped_and_reconstructed(self, reg):
        value = ok(reg, "EqualAandB", "aabb")
        assert value.raw is None
        assert value.raw_text() == "aabb"
        assert value.raw_eq(ok(reg, "EqualAandB", "aabb"))

    # The kernel form of the grammar, one parser call per character: the
    # oracle the two-scan parser must agree with on every outcome.
    ORACLE = many(satisfy(lambda c: c == "a", "'a'")).bind(
        lambda run: times(satisfy(lambda c: c == "b", "'b'"), len(run)).map(
            lambda _: (EqualAandB(len(run)), {})))

    @staticmethod
    def near_misses():
        """a^n b^m with m within 3 of n, then a short suffix; seeded."""
        rng = random.Random(7)
        counts = [0, 1, 2, 3, 600] + rng.sample(range(4, 600), 40)
        return ["a" * n + "b" * m + tail
                for n in counts for m in range(max(n - 3, 0), n + 4)
                for tail in ("", "a", "ba", "x", "\u00e9")]

    def test_agrees_with_kernel_oracle(self, reg):
        short = ["".join(t) for size in range(9)
                 for t in itertools.product("abx", repeat=size)]
        inputs = short + self.near_misses()
        assert len(inputs) == 9_841 + 1_545
        accepted = 0
        for raw in inputs:
            want = run_to_end(self.ORACLE, raw)
            got = reg.from_raw("EqualAandB", raw)
            if isinstance(want, Failure):
                assert isinstance(got, Err), (raw, got)
                assert _report(got) == (want.pos, want.expected), raw
                continue
            accepted += 1
            structure, spans = want.value
            assert isinstance(got, Ok), (raw, got)
            assert got.value.structure == structure, raw
            assert got.value.spans == spans, raw
            assert got.value.cast() == raw
        assert accepted == 5 + 45

    def test_long_input_is_data(self, reg):
        n = 100_000
        assert ok(reg, "EqualAandB", "a" * n + "b" * n).structure == EqualAandB(n)
        short = reg.from_raw("EqualAandB", "a" * n + "b" * (n - 1))
        assert _report(short) == (2 * n - 1, "'b'")
        extra = reg.from_raw("EqualAandB", "a" * n + "b" * (n + 1))
        assert _report(extra) == (2 * n, "end of input")


class TestInnerR:
    def test_first_r_is_the_pivot(self, reg):
        assert ok(reg, "InnerR", "abrcd").structure == InnerR("ab", "cd")
        assert ok(reg, "InnerR", "arbrc").structure == InnerR("a", "brc")
        assert ok(reg, "InnerR", "rx").structure == InnerR("", "x")
        assert ok(reg, "InnerR", "abr").structure == InnerR("ab", "")

    def test_requires_an_r(self, reg):
        assert err(reg, "InnerR", "abc").parse.pos == 3

    def test_cast_reassembles(self, reg):
        for raw in ["abrcd", "r", "arbrc"]:
            assert ok(reg, "InnerR", raw).cast() == raw


def _kernel_expr():
    """Expr's grammar built from the generic kernel, with whitespace skipped
    after every token: one combinator call per token and a Python frame per
    bracket. The oracle the one-loop parser must agree with on every outcome.
    """
    ws = many(one_of(" \t\n\r"))

    def lexeme(p):
        return seq(p, ws).map(lambda t: t[0])

    number = lexeme(some(one_of("0123456789")).desc("a number")).map(
        lambda digits: Const(int("".join(digits))))
    expr = forward()
    atom = alt(number, seq(lexeme(lit("(")), expr, lexeme(lit(")"))).map(lambda t: t[1]))
    product = chain_left(atom, lexeme(lit("*")).map(lambda _: Mult))
    expr.define(chain_left(product, lexeme(lit("+")).map(lambda _: Add)))
    return seq(ws, expr).map(lambda t: (t[1], {}))


class TestExpr:
    def test_precedence(self, reg):
        assert ok(reg, "Expr", "3 * 4 + 5").structure == Add(
            Mult(Const(3), Const(4)), Const(5))
        assert ok(reg, "Expr", "3 + 4 * 5").structure == Add(
            Const(3), Mult(Const(4), Const(5)))

    def test_left_associativity(self, reg):
        assert ok(reg, "Expr", "1+2+3").structure == Add(
            Add(Const(1), Const(2)), Const(3))
        assert ok(reg, "Expr", "2*3*4").structure == Mult(
            Mult(Const(2), Const(3)), Const(4))

    def test_parentheses(self, reg):
        assert ok(reg, "Expr", "(1 + 2) * 3").structure == Mult(
            Add(Const(1), Const(2)), Const(3))
        assert ok(reg, "Expr", "((7))").structure == Const(7)

    def test_whitespace_is_ignored(self, reg):
        assert ok(reg, "Expr", "  3   *4 ").structure == Mult(Const(3), Const(4))

    # (pos, expected) of each rejection: the furthest failure wins, ties
    # are joined with "or", and an operator whose right operand fails is
    # given back, so the report is at the end of what was parsed.
    REJECTIONS = {
        "3 +": (2, "end of input"),
        "": (0, 'a number or "("'),
        "3 4": (2, "end of input"),
        "*3": (0, 'a number or "("'),
        "(1+2": (4, '")"'),
        "1 + + 2": (2, "end of input"),
        "(3": (2, '")"'),
        " ( 1 + ": (5, '")"'),
    }

    @pytest.mark.parametrize("bad", list(REJECTIONS))
    def test_rejections(self, reg, bad):
        report = err(reg, "Expr", bad).parse
        assert (report.pos, report.expected) == self.REJECTIONS[bad]

    def test_equal_trees_built_apart_hash_equal(self):
        def build():
            return Add(Mult(Const(3), Add(Const(4), Const(5))), Const(6))
        a, b = build(), build()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    def test_operators_are_told_apart(self):
        a, b = Const(1), Const(2)
        assert Add(a, b) != Mult(a, b)
        assert Mult(a, b) != Add(a, b)
        assert Add(a, b) != Add(b, a)
        assert len({Add(a, b), Mult(a, b)}) == 2

    def test_nodes_are_frozen(self):
        tree = Add(Const(1), Const(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.l = Const(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.l.n = 3
        assert not hasattr(tree, "__dict__")

    def test_nodes_copy_and_pickle_with_their_hash(self):
        tree = Mult(Add(Const(1), Const(2)), Const(3))
        for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone == tree and hash(clone) == hash(tree)

    def test_cast_uses_minimal_parentheses(self, reg):
        assert ok(reg, "Expr", "3 * 4 + 5").cast() == "3 * 4 + 5"
        assert ok(reg, "Expr", "3 * (4 + 5)").cast() == "3 * (4 + 5)"
        assert ok(reg, "Expr", "(3 * 4) + 5").cast() == "3 * 4 + 5"
        assert ok(reg, "Expr", "1 + (2 + 3)").cast() == "1 + (2 + 3)"
        assert ok(reg, "Expr", "(1 + 2) + 3").cast() == "1 + 2 + 3"
        assert ok(reg, "Expr", "3 * (4 * 5)").cast() == "3 * (4 * 5)"

    def test_tree_roundtrip_on_random_trees(self, reg):
        rng = random.Random(99)
        for _ in range(1000):
            tree = gen_expr_tree(rng, 6)
            result = reg.from_raw("Expr", expr_text(tree))
            assert isinstance(result, Ok)
            assert result.value.structure == tree

    ORACLE = _kernel_expr()

    @staticmethod
    def longer_inputs():
        """20,000 seeded strings: 5,000 loose renderings of random trees, of
        7 or more characters, each with two copies carrying one to three
        single-character edits, and 5,000 random strings of 7 to 30
        characters over "1+*() x"."""
        rng = random.Random(8)
        out = []
        while len(out) < 15_000:
            raw = render_expr_loose(rng, gen_expr_tree(rng, rng.randint(2, 4)))
            if len(raw) < 7:
                continue
            out.append(raw)
            for _ in range(2):
                edited = raw
                for _ in range(rng.randint(1, 3)):
                    edited = _mutations(rng, edited, "1+*() x\t", count=1)[0]
                out.append(edited)
        out += ["".join(rng.choice("1+*() x") for _ in range(rng.randint(7, 30)))
                for _ in range(5_000)]
        return out

    def test_agrees_with_kernel_oracle(self, reg):
        short = ["".join(t) for size in range(7)
                 for t in itertools.product("1+*() x", repeat=size)]
        inputs = short + self.longer_inputs()
        assert len(inputs) == 137_257 + 20_000
        accepted = 0
        for raw in inputs:
            want = run_to_end(self.ORACLE, raw)
            got = reg.from_raw("Expr", raw)
            if isinstance(want, Failure):
                assert isinstance(got, Err), (raw, got)
                assert _report(got) == (want.pos, want.expected), raw
                continue
            accepted += 1
            structure, spans = want.value
            assert isinstance(got, Ok), (raw, got)
            assert got.value.structure == structure, raw
            assert got.value.spans == spans, raw
        assert accepted == 382 + 7_661

    def test_deep_nesting_is_data(self, reg):
        n = 10 ** 5
        assert ok(reg, "Expr", "(" * n + "7" + ")" * n).structure == Const(7)
        assert _report(reg.from_raw("Expr", "(" * n)) == (n, 'a number or "("')
        assert _report(reg.from_raw("Expr", "(" * n + "7" + ")" * (n - 1))) == (
            2 * n, '")"')

    def test_digit_runs_int_cannot_convert_are_rejected(self, reg):
        saved = sys.get_int_max_str_digits()
        try:
            for limit in (saved, 640):
                sys.set_int_max_str_digits(limit)
                label = f"a number of at most {limit} digits"
                longest = "9" * limit
                assert ok(reg, "Expr", longest).cast() == longest
                for raw, report in [("1" * (limit + 1), (0, label)),
                                    (" (" + "0" * (limit + 1), (2, label)),
                                    ("2 * " + "1" * (limit + 1), (2, "end of input")),
                                    ("(2+" + "1" * (limit + 1) + ")", (2, '")"'))]:
                    assert _report(reg.from_raw("Expr", raw)) == report
            sys.set_int_max_str_digits(0)
            assert ok(reg, "Expr", "1" * 5000).structure == Const(int("1" * 5000))
        finally:
            sys.set_int_max_str_digits(saved)


class TestSanitised:
    def test_allowlist_blocks_injection_payloads(self, reg):
        err(reg, "Sanitised", "' OR '1'='1' --")
        err(reg, "Sanitised", "<script>alert(1)</script>")
        err(reg, "UserName", "Robert'); DROP TABLE Students;--")

    def test_ordinary_names_pass(self, reg):
        value = ok(reg, "UserName", "Robert Tables")
        assert value.structure == Opaque("Robert Tables")
        assert value.cast() == "Robert Tables"
        ok(reg, "Sanitised", "user_name-1.0")


class TestRoundTripAllBuiltins:
    @pytest.mark.parametrize("type_name", sorted(ACCEPTED_GENERATORS))
    def test_parse_cast_parse_is_stable(self, reg, type_name):
        rng = random.Random(f"roundtrip-{type_name}")
        gen = ACCEPTED_GENERATORS[type_name]
        for _ in range(100):
            raw = gen(rng)
            first = reg.from_raw(type_name, raw)
            assert isinstance(first, Ok), (type_name, raw, first)
            canonical = first.value.cast()
            second = reg.from_raw(type_name, canonical)
            assert isinstance(second, Ok), (type_name, canonical, second)
            assert first.value.strict_eq(second.value)
            assert second.value.cast() == canonical


class TestDescriptors:
    def test_every_descriptor_hashes_and_is_a_set_member(self, reg):
        descriptors = [reg.get(name) for name in reg.names()]
        members = set(descriptors)
        assert len(members) == len(descriptors)
        for descriptor in descriptors:
            assert descriptor in members
            assert hash(descriptor) == hash(reg.get(descriptor.name))


def _mutations(rng, raw, alphabet, count=3):
    """Single-character insertions, deletions and substitutions of ``raw``."""
    out = []
    for _ in range(count):
        i = rng.randrange(len(raw) + 1)
        c = rng.choice(alphabet)
        out.append(rng.choice([raw[:i] + c + raw[i:], raw[:i] + raw[i + 1:],
                               raw[:i] + c + raw[i + 1:]]))
    return out


_REGISTRY = build_registry()


def _report(result):
    return (result.error.parse.pos, result.error.parse.expected)


def _hostile_inputs():
    """Seeded inputs that have broken parsers before: deep or unclosed
    brackets, long runs of one character, lone surrogates, NUL and other
    control characters."""
    n = 10 ** 5
    rng = random.Random(3)
    out = ["(" * n, "(" * n + "7", "(" * n + "7" + ")" * n, "1+(" * 3000 + "1" + ")" * 3000]
    out += [c * n for c in "a1(/\\@.#r-\x00\u00e9\ud800"]
    controls = "".join(map(chr, range(32))) + "\x7f\x85\u2028\ud800\udfff"
    out += [controls, "\ud800", "a\udfffb", "\x00@\x00.\x00"]
    out += ["".join(rng.choice(controls + "a1(") for _ in range(rng.randint(1, 40)))
            for _ in range(20)]
    return out, controls + "(1+*/\\.@-é"


class TestParsingNeverRaises:
    """ROADMAP aim 3: malformed input is data. Every registered type
    answers ``Ok`` or ``Err`` on every hostile input, and on one-character
    insertions into the strings it accepts."""

    @pytest.mark.parametrize("type_name", _REGISTRY.names())
    def test_hostile_inputs_are_data(self, reg, type_name):
        inputs, alphabet = _hostile_inputs()
        rng = random.Random(f"hostile-{type_name}")
        for raw in accepted_strings(type_name, 50):
            i = rng.randrange(len(raw) + 1)
            inputs.append(raw[:i] + rng.choice(alphabet) + raw[i:])
        for raw in inputs:
            result = reg.from_raw(type_name, raw)
            assert isinstance(result, (Ok, Err)), (type_name, raw[:40])


class TestDerivedSubtypes:
    """A subtype parses as its parent does and then narrows.

    For every registered (ancestor, subtype) pair, over accepted strings of
    both and single-character mutations of them: parsing as the subtype
    agrees with parsing as the ancestor and narrowing, on verdict,
    structure, spans and rejection report (the ancestor's report when the
    ancestor rejects, narrow's otherwise).
    """

    PAIRS = sorted((ancestor, sub) for sub in _REGISTRY.names()
                   for ancestor in _REGISTRY.ancestors(sub))
    ALPHABET = "a/\\.@#-_ 0123456789gmailhopxtr\u00e9"

    def inputs(self, ancestor, sub):
        rng = random.Random(zlib.crc32(f"{ancestor}>{sub}".encode()))
        out = []
        for type_name in (ancestor, sub):
            for raw in accepted_strings(type_name, 150):
                out.append(raw)
                out.extend(_mutations(rng, raw, self.ALPHABET))
        return out

    def test_pairs_cover_every_subtype(self):
        assert ("CssUnit", "PxOrAuto") in self.PAIRS
        assert ("FilePath", "HomeDotFile") in self.PAIRS
        assert len(self.PAIRS) == 6

    @pytest.mark.parametrize("ancestor,sub", PAIRS)
    def test_parse_agrees_with_narrow(self, reg, ancestor, sub):
        accepted = 0
        for raw in self.inputs(ancestor, sub):
            wide = reg.from_raw(ancestor, raw)
            got = reg.from_raw(sub, raw)
            if isinstance(wide, Err):
                assert isinstance(got, Err), (sub, raw)
                assert _report(got) == _report(wide), (sub, raw)
                continue
            want = wide.value.narrow(sub)
            assert type(got) is type(want), (sub, raw, got, want)
            if isinstance(want, Ok):
                accepted += 1
                assert got.value.structure == want.value.structure, (sub, raw)
                assert got.value.spans == want.value.spans, (sub, raw)
                assert got.value.cast() == want.value.cast(), (sub, raw)
            else:
                assert _report(got) == _report(want), (sub, raw)
        assert accepted >= 150

    def test_an_override_of_an_override_runs_both_checks(self):
        reg = build_registry()
        reg.register(subtype(reg.get("PxOrAuto"), "Pt", unit=lit("pt")))
        want = reg.from_raw("Pt", "12pt")
        got = ok(reg, "CssUnit", "12pt").narrow("Pt")
        assert isinstance(want, Err) and isinstance(got, Err)
        assert _report(got) == _report(want) == (2, '"px" or "auto"')

    # A subtype's report is its parent's when the parent rejects the input,
    # and otherwise the one narrowing from the parent gives.
    REJECTIONS = {
        ("PxOrAuto", "10pc"): (2, '"px" or "auto"'),
        ("PxOrAuto", "1in"): (1, "a unit"),
        ("Gmail", "a@hotmail.com"): (2, '"gmail"'),
        ("Gmail", "a@gmailx.com"): (7, "end of input"),
        ("Gmail", "a@b.c!"): (5, "end of input"),
        ("UnixPath", "a\\b"): (1, '"/"'),
        ("WindowsPath", "/a/b.txt"): (0, '"\\"'),
        ("HomeDotFile", "/home/x.txt"): (6, "/\\.[^/\\\\]*/"),
        ("HomeDotFile", "/etc/.bashrc"): (1, '"home"'),
        ("HomeDotFile", "a\\b"): (1, '"/"'),
    }

    @pytest.mark.parametrize("sub,bad", list(REJECTIONS))
    def test_rejections(self, reg, sub, bad):
        assert _report(reg.from_raw(sub, bad)) == self.REJECTIONS[sub, bad]

    def test_declared_by_parent_and_overrides(self, reg):
        for _, sub in self.PAIRS:
            descriptor = reg.get(sub)
            parent = reg.get(descriptor.parent)
            assert descriptor.fields == parent.fields
            assert descriptor.cast_fn is parent.cast_fn
            overrides = list(descriptor.field_recognizers)
            assert overrides == sorted(overrides)
            assert set(overrides) <= set(parent.fields)

    def test_a_field_called_name_can_be_overridden(self):
        reg = build_registry()
        reg.register(subtype(reg.get("Email"), "Shouty", name=pattern("[A-Z!]+")))
        assert ok(reg, "Shouty", "AB@x.com").structure == Email("AB", "x", "com")
        want = ok(reg, "Email", "ab@x.com").narrow("Shouty")
        got = reg.from_raw("Shouty", "ab@x.com")
        assert isinstance(want, Err)
        assert _report(got) == _report(want) == (0, "/[A-Z!]+/")

    def test_parsing_a_subtype_counts_no_field_checks(self, reg):
        reset_field_checks()
        ok(reg, "HomeDotFile", "/home/.bashrc")
        err(reg, "Gmail", "a@hotmail.com")
        assert field_checks() == 0


class TestSpansSatisfyFieldRecognizers:
    @pytest.mark.parametrize("type_name", _REGISTRY.names())
    def test_each_span_is_accepted_by_its_field_recognizer(self, reg, type_name):
        for raw in accepted_strings(type_name, 300):
            for field_name, (start, end) in ok(reg, type_name, raw).spans.items():
                try:
                    recognizer = reg.field_recognizer(type_name, field_name)
                except UnknownFieldError:
                    continue
                out = run_to_end(recognizer, raw[start:end])
                assert isinstance(out, Success), (type_name, raw, field_name, out)
