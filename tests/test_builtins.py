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
from reference_casts import REFERENCE_CASTS
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
    _EXPR,
    _LEAVES,
    _PATH,
    _SEGMENT,
    _split_segment,
    build_registry,
    cast_equal_ab,
    cast_path,
    expr_text,
)
from strtype.combinators import (Failure, Parser, Success, alt, chain_left, forward, lit,
                                 many, one_of, pattern, record, run_to_end, satisfy, seq,
                                 some, spanned, succeed, times)
from strtype.core import (Err, Ok, Opaque, RegistryError, StringType, TypeRegistry,
                          field_checks, from_structure, reset_field_checks, subtype)
from strtype.patterns import Structure


def recursive_expr_text(e):
    """The plain recursive renderer: ``expr_text``'s oracle."""
    def go(node, floor):
        if isinstance(node, Const):
            return str(node.n)
        if isinstance(node, Add):
            rendered, level = f"{go(node.l, 1)} + {go(node.r, 2)}", 1
        else:
            rendered, level = f"{go(node.l, 2)} * {go(node.r, 3)}", 2
        return f"({rendered})" if level < floor else rendered
    return go(e, 0)


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

    def test_agrees_with_the_satisfy_grammar(self, reg):
        """The token grammar gives what the grammar over ``satisfy`` and
        ``seq`` gives, on every string over "#1aG\u00e9" of up to 6
        characters and every one of 7 that starts with "#": verdict,
        structure, spans and report."""
        digit = satisfy(lambda c: c in "0123456789abcdefABCDEF", "a hex digit")
        pair = seq(digit, digit).map(lambda t: int(t[0] + t[1], 16))
        short = digit.map(lambda c: int(c + c, 16))
        grammar = alt(*(record(CssColour, lit("#"), ("red", h), ("green", h), ("blue", h))
                        for h in (pair, short)))
        oracle = TypeRegistry()
        oracle.register(StringType("CssColour", grammar, reg.get("CssColour").cast_fn))
        accepted = 0
        strings = [*("".join(chars) for size in range(7)
                     for chars in itertools.product("#1aG\u00e9", repeat=size)),
                   *("#" + "".join(chars) for chars in itertools.product("#1aG\u00e9", repeat=6))]
        for raw in strings:
            got, want = reg.from_raw("CssColour", raw), oracle.from_raw("CssColour", raw)
            assert type(got) is type(want), raw
            if isinstance(want, Err):
                assert _report(got) == _report(want), raw
                continue
            accepted += 1
            assert got.value.structure == want.value.structure, raw
            assert got.value.spans == want.value.spans, raw
        assert accepted == 2 ** 3 + 2 ** 6


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

    def test_a_number_beyond_a_float_is_rejected_at_its_start(self, reg):
        # float() of these digits is inf, which has no canonical form.
        for raw in ["1" * 400 + "px", "9" * 309 + ".5cm", "2" + "0" * 308 + "pt"]:
            parse = err(reg, "CssUnit", raw).parse
            assert (parse.pos, parse.expected) == (0, 'a finite number or "auto"')
        assert err(reg, "PxOrAuto", "1" * 400 + "px").parse.pos == 0
        large = ok(reg, "CssUnit", "1" + "0" * 308 + "px")
        assert ok(reg, "CssUnit", large.cast()).structure == large.structure
        assert isinstance(run_to_end(dict(reg.get("CssUnit").checks)["value"],
                                     "1" * 400), Failure)

    def test_cast_writes_small_values_out_in_full(self, reg):
        # repr writes these with an exponent, which the grammar has no room for.
        value = ok(reg, "CssUnit", "0.000000000000000001px")
        assert value.cast() == "0.000000000000000001px"
        assert ok(reg, "CssUnit", "0.000015cm").cast() == "0.000015cm"

    def test_every_float_survives_its_cast(self, reg):
        rng = random.Random(1)
        for _ in range(20_000):
            v = rng.uniform(0, 1) * 10 ** rng.randint(-30, 15)
            assert from_structure(reg, "CssUnit", CssUnit(v, "px")).structure.value == v, v

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


# The kernel form of FilePath's grammar, a few parsers built per parse: the
# oracle the single ``re`` match, with its kernel ``alt`` for rejections,
# must agree with on every outcome.
def _assemble_path(absolute: bool, sep_char: str | None, seg_spans, lead_start: int):
    *dir_spans, (file_text, fs, fe) = seg_spans
    file_name, ext = _split_segment(file_text)
    spans: dict[str, tuple[int, int]] = {}
    if absolute:
        spans["separator"] = (lead_start, lead_start + 1)
    elif sep_char is not None:
        first_end = seg_spans[0][2]
        spans["separator"] = (first_end, first_end + 1)
    spans["dirs"] = (dir_spans[0][1], dir_spans[-1][2]) if dir_spans else (fs, fs)
    if ext is not None:
        dot = fs + len(file_name)
        spans["file_name"] = (fs, dot)
        spans["ext"] = (dot + 1, fe)
    else:
        spans["file_name"] = (fs, fe)
    structure = FilePath(
        absolute=absolute,
        dirs=tuple(t for t, _, _ in dir_spans),
        file_name=file_name,
        ext=ext,
        separator=sep_char if sep_char is not None else "/",
    )
    return (structure, spans)


def _path_grammar() -> Parser:
    """Paths whose first separator, wherever it appears, fixes the style.

    The style char flows through ``bind`` into the parser for the rest of
    the string, so a path mixing separators fails part-way instead of
    parsing inconsistently. A relative path with a single segment carries
    no separator evidence at all; its structure defaults to "/" and it
    records no separator span.
    """
    segment = spanned(_SEGMENT)
    style = one_of("/\\")

    def more(c: str) -> Parser:
        return many(seq(lit(c), segment).map(lambda t: t[1]))

    absolute = spanned(style).bind(
        lambda lead: segment.bind(
            lambda first: more(lead[0]).map(
                lambda rest: _assemble_path(True, lead[0], [first] + rest, lead[1]))))

    def relative_tail(first):
        fixed = spanned(style).bind(
            lambda s: segment.bind(
                lambda second: more(s[0]).map(
                    lambda rest: _assemble_path(False, s[0], [first, second] + rest, 0))))
        return alt(fixed, succeed(_assemble_path(False, None, [first], 0)))

    return alt(absolute, segment.bind(relative_tail))


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

    def test_rejection_reports(self, reg):
        assert _report(reg.from_raw("FilePath", "")) == (
            0, "one of '/\\\\' or a path segment")
        assert _report(reg.from_raw("FilePath", "/")) == (1, "a path segment")
        assert _report(reg.from_raw("FilePath", "a/b\\c.txt")) == (3, "end of input")
        assert _report(reg.from_raw("FilePath", "a/")) == (1, "end of input")

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
        assert ok(reg, "WindowsPath", "a\\b.txt").structure.separator == "\\"
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
        for raw in ("/home/.bashrc", "/home/.vimrc"):
            value = ok(reg, "FilePath", raw)
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

    PATH_TYPES = ("FilePath", "UnixPath", "WindowsPath", "HomeDotFile")

    @staticmethod
    def oracle_registry(reg):
        """The four path types as registered, with FilePath's recognizer
        swapped for the kernel grammar and each subtype re-derived from it."""
        oracle = TypeRegistry()
        for name in TestFilePath.PATH_TYPES:
            declared = reg.get(name)
            oracle.register(
                StringType(name, _path_grammar(), declared.cast_fn, declared.fields,
                           declared.checks)
                if declared.parent is None else
                subtype(oracle.get(declared.parent), name,
                        **dict(declared.checks[len(reg.get(declared.parent).checks):])))
        return oracle

    @staticmethod
    def path_inputs():
        """Every string over "a./\\" of up to 7 characters, the same strings
        of up to 4 characters under "/home/", 20,000 seeded strings of up to
        60 characters over "ab./\\\u00e9 ", and three long paths."""
        short = ["".join(t) for size in range(8)
                 for t in itertools.product("a./\\", repeat=size)]
        rng = random.Random(10)
        seeded = ["".join(rng.choice("ab./\\\u00e9 ") for _ in range(rng.randint(0, 60)))
                  for _ in range(20_000)]
        long = ["a/" * 5_000 + "b.txt", "\\" + "dir\\" * 3_000 + "x", "a/" * 3_000 + "\\b"]
        home = ["/home/" + raw for raw in short if len(raw) <= 4]
        return short + home + seeded + long

    @staticmethod
    def count_agreeing(oracle, reg, inputs):
        """Check every input against the oracle for each path type: verdict,
        report, structure, spans (key order too) and cast. Returns how many
        inputs each type accepted."""
        accepted = dict.fromkeys(TestFilePath.PATH_TYPES, 0)
        for type_name in TestFilePath.PATH_TYPES:
            for raw in inputs:
                want = oracle.from_raw(type_name, raw)
                got = reg.from_raw(type_name, raw)
                if isinstance(want, Err):
                    assert isinstance(got, Err), (type_name, raw, got)
                    assert _report(got) == _report(want), (type_name, raw)
                    continue
                accepted[type_name] += 1
                assert isinstance(got, Ok), (type_name, raw, got)
                assert got.value.structure == want.value.structure, (type_name, raw)
                assert got.value.spans == want.value.spans, (type_name, raw)
                assert list(got.value.spans) == list(want.value.spans), (type_name, raw)
                assert got.value.cast() == want.value.cast(), (type_name, raw)
        return accepted

    def test_agrees_with_kernel_oracle(self, reg):
        oracle = self.oracle_registry(reg)
        inputs = self.path_inputs()
        assert len(inputs) == 21_845 + 341 + 20_000 + 3
        assert self.count_agreeing(oracle, reg, inputs) == {
            "FilePath": 4_670, "UnixPath": 2_869, "WindowsPath": 2_831, "HomeDotFile": 15}

    def test_agrees_with_kernel_oracle_mid_text_and_on_long_paths(self, reg):
        # After a prefix, so the scans start past 0: outcome, end and span
        # order as the kernel grammar's, on every short string.
        short = self.path_inputs()[:21_845]
        assert short[-1] == "\\" * 7
        ours, kernel = seq(lit("x"), _PATH), seq(lit("x"), _path_grammar())
        for raw in short:
            got, want = ours.run("x" + raw), kernel.run("x" + raw)
            assert got == want, (raw, got, want)
            if isinstance(want, Success):
                assert list(got.value[1][1]) == list(want.value[1][1]), raw
        # Long paths with non-ASCII segments, and each rejection tail of the
        # bench's long paths: a trailing separator, the other separator, and
        # a doubled one.
        rng = random.Random(31)
        alphabet = "ab._- é中\U0001f600"
        inputs = []
        for length in [200, 4_000] + [rng.randint(200, 4_000) for _ in range(40)]:
            sep = rng.choice("/\\")
            other = "\\" if sep == "/" else "/"
            lead = sep if rng.random() < 0.5 else ""
            count = rng.randint(2, 6)
            body = length - len(lead) - (count - 1)
            segments = ["".join(rng.choices(alphabet, k=body // count + (i < body % count)))
                        for i in range(count)]
            raw = lead + sep.join(segments)
            assert len(raw) == length
            inputs += [raw + tail for tail in ("", sep, other + "x", sep + sep + "x")]
        accepted = self.count_agreeing(self.oracle_registry(reg), reg, inputs)
        assert accepted["FilePath"] == 42, accepted

    def test_segments_hold_any_character_but_a_separator(self, reg):
        # Line breaks, NUL and an astral character are segment characters
        # like "b": each string of up to 4 characters over "a./\\" and one of
        # them, and each of up to 3 under "/home/", "a/b/" and "\\a\\b\\" (so
        # a segment after the second separator holds it too), agrees with the
        # oracle, and each character lets as many paths through as "b" does.
        oracle = self.oracle_registry(reg)
        counts = {}
        for c in ("b", "\n", "\r", "\u2028", "\x00", "\U0001f600"):
            short = ["".join(t) for size in range(5)
                     for t in itertools.product("a./\\" + c, repeat=size)]
            inputs = short + [lead + raw for lead in ("/home/", "a/b/", "\\a\\b\\")
                              for raw in short if len(raw) <= 3]
            counts[c] = self.count_agreeing(oracle, reg, inputs)
            assert counts[c] == counts["b"], repr(c)
        assert all(counts["b"].values())
        c = "\U0001f600"
        value = ok(reg, "FilePath", f"\\a\n\\b\u2028\\{c}\r.t\x00")
        assert value.structure == FilePath(True, ("a\n", "b\u2028"), c + "\r", "t\x00", "\\")
        assert value.spans == {"separator": (0, 1), "dirs": (1, 6),
                               "file_name": (7, 9), "ext": (10, 12)}


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

    def test_raw_is_kept(self, reg):
        value = ok(reg, "EqualAandB", "aabb")
        assert value.raw == "aabb"
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
        # Whitespace and digits that str.split and str.isdigit know and the
        # grammar does not.
        "1\xa0+2": (1, "end of input"),
        "1+\u0663": (1, "end of input"),
        "(1\u2028)": (2, '")"'),
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

    def test_long_and_deep_trees_compare_without_recursion(self, reg):
        flat = "+".join(["1"] * 20_000)
        deep = "1+(" * 3_000 + "1" + ")" * 3_000
        for raw in (flat, deep):
            a, b = ok(reg, "Expr", raw), ok(reg, "Expr", raw)
            assert a.structure is not b.structure
            assert a.structure == b.structure and a == b
            assert a.structure != ok(reg, "Expr", "2" + raw[1:]).structure

    def test_equal_hashes_do_not_make_nodes_equal(self):
        # hash(-1) == hash(-2), so these trees agree in every cached hash.
        a, b = Add(Const(-1), Const(0)), Add(Const(-2), Const(0))
        assert hash(a) == hash(b)
        assert a != b and Mult(b, a) != Mult(a, a)

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

    def test_renderer_agrees_with_recursive_oracle(self):
        rng = random.Random(12)
        trees = [gen_expr_tree(rng, rng.randint(1, 9)) for _ in range(2_000)]
        assert sum(not isinstance(tree, Const) for tree in trees) > 1_000
        for tree in trees:
            assert expr_text(tree) == recursive_expr_text(tree)

    def test_long_and_deep_trees_render_and_parse_back(self, reg):
        flat = "+".join(["1"] * 20_000)
        deep = "1+(" * 3_000 + "1" + ")" * 3_000
        for raw in (flat, deep):
            value = ok(reg, "Expr", raw)
            assert ok(reg, "Expr", value.cast()) == value
            assert value.weak_eq(ok(reg, "Expr", raw))
        assert ok(reg, "Expr", deep).cast().endswith("1 + 1" + ")" * 2_999)

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

    def test_agrees_with_kernel_oracle_where_str_methods_disagree(self, reg):
        # Whitespace that str.split cuts at and the grammar lacks, digits that
        # str.isdigit accepts and the grammar lacks, and the grammar's own
        # characters: verdict, structure and report as the kernel grammar's.
        alphabet = "\x0b\x0c\x1c\x85\xa0\u2028\u3000\u0663\xb2" + "09\n\rx" + "1+*() "
        rng = random.Random(32)
        inputs = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
                  for _ in range(10_000)]
        for _ in range(2_000):
            raw = render_expr_loose(rng, gen_expr_tree(rng, rng.randint(1, 4)))
            inputs += _mutations(rng, raw, alphabet, count=2)
        accepted = 0
        for raw in inputs:
            want = run_to_end(self.ORACLE, raw)
            got = reg.from_raw("Expr", raw)
            if isinstance(want, Failure):
                assert isinstance(got, Err), (raw, got)
                assert _report(got) == (want.pos, want.expected), raw
                continue
            accepted += 1
            assert isinstance(got, Ok), (raw, got)
            assert got.value.structure == want.value[0], raw
        assert accepted > 1_000

    def test_agrees_with_kernel_oracle_inside_a_larger_grammar(self):
        # After a prefix, every position is offset by one; before a suffix,
        # a parse that stops early must end where the kernel grammar's does.
        short = ["".join(t) for size in range(7)
                 for t in itertools.product("1+*() x", repeat=size)]
        ours, kernel = seq(lit("x"), _EXPR), seq(lit("x"), self.ORACLE)
        for raw in short:
            assert ours.run("x" + raw) == kernel.run("x" + raw), raw
        # A prefix that holds a token: positions are found after it.
        ours, kernel = seq(lit("1"), _EXPR), seq(lit("1"), self.ORACLE)
        for raw in [raw for raw in short if len(raw) <= 5]:
            assert ours.run("1" + raw) == kernel.run("1" + raw), raw
        ours, kernel = seq(_EXPR, lit(";")), seq(self.ORACLE, lit(";"))
        for raw in ["1 + 2;", "1 2;", "(1) (2);", "1 + + 2;"]:
            assert ours.run(raw) == kernel.run(raw), raw
        assert [ours.run(raw).pos for raw in ["1 2;", "(1) (2);", "1 + + 2;"]] == [2, 4, 2]

    def test_reports_on_long_inputs(self, reg):
        # A report before the end is found by stepping back over the tokens
        # from the end of the known run.
        flat = " + ".join(["1"] * 2_000) + " +"
        for raw, report in [(flat, (len(flat) - 1, "end of input")),
                            ("1 2" + " + 3" * 2_000, (2, "end of input"))]:
            want = run_to_end(self.ORACLE, raw)
            assert _report(reg.from_raw("Expr", raw)) == report == (want.pos, want.expected)

    def test_early_stops_in_long_runs_agree_with_kernel_oracle(self, reg):
        # Each stop sits at the start, the middle or the end of a run of
        # 2,000 terms, so its position is found stepping back over few or
        # many tokens; also after a one-character prefix.
        rng = random.Random(34)
        terms = [rng.choice([" + 3", "\t*  45", " +(6)", "+7", " * ( 8 + 9 )"])
                 for _ in range(2_000)]
        stops = [" 2", " + + 2", " )", " x", " * (1 2)", "  (1"]
        prefixed = seq(lit("x"), _EXPR), seq(lit("x"), self.ORACLE)
        for at in (0, 1, 1_000, 1_999, 2_000):
            for stop in stops:
                raw = "1" + "".join(terms[:at]) + stop + "".join(terms[at:])
                want = run_to_end(self.ORACLE, raw)
                got = reg.from_raw("Expr", raw)
                assert isinstance(got, Err) and isinstance(want, Failure), (at, stop)
                assert _report(got) == (want.pos, want.expected), (at, stop)
                ours, kernel = (p.run("x" + raw) for p in prefixed)
                assert ours == kernel, (at, stop)
        assert _report(reg.from_raw("Expr", "1 2" + " + 3" * 2_000)) == (2, "end of input")

    def test_small_leaves_are_shared(self, reg):
        tree = ok(reg, "Expr", "7+7").structure
        assert tree == Add(Const(7), Const(7)) and tree.l is tree.r
        assert ok(reg, "Expr", "(007) * 7").structure.l is not tree.l
        long = ok(reg, "Expr", "1234 + 1234").structure
        assert long.l == long.r and long.l is not long.r

    def test_shared_leaves_do_not_change_trees(self, reg):
        rng = random.Random(341)
        big = [Const(n) for n in (1_000, 99_999, 10 ** 30)]
        for _ in range(500):
            tree = gen_expr_tree(rng, rng.randint(1, 6))
            if rng.random() < 0.3:
                tree = Mult(tree, rng.choice(big))
            parsed = ok(reg, "Expr", expr_text(tree)).structure
            assert parsed == tree and hash(parsed) == hash(tree)
            assert {tree: 1}[parsed] == 1
            for clone in (copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
                assert clone == tree and hash(clone) == hash(tree)

    def test_leaf_table_is_bounded(self, reg):
        # 10,000 distinct digit runs of 1 to 6 digits: only those of at most
        # 3 digits, 1,110 in all, are kept.
        rng = random.Random(342)
        raws = set()
        while len(raws) < 10_000:
            raws.add("".join(rng.choices("0123456789", k=rng.randint(1, 6))))
        for raw in raws:
            assert ok(reg, "Expr", raw).structure == Const(int(raw))
        assert 100 < len(_LEAVES) <= 1_110
        assert all(len(token) <= 3 and leaf == Const(int(token))
                   for token, leaf in _LEAVES.items())

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
    # The roots whose grammar is a record, or an alt of records, and their
    # structure classes.
    RECORD_ROOTS = {"CssColour": CssColour, "CssUnit": CssUnit, "Email": Email,
                    "InnerR": InnerR, "Sanitised": Opaque, "USPhone": USPhone,
                    "UserName": Opaque}

    def test_record_roots_are_the_roots_with_parts(self, reg):
        assert [name for name in reg.names() if reg.get(name).parent is None
                and reg.get(name).recognizer.parts] == sorted(self.RECORD_ROOTS)

    @pytest.mark.parametrize("type_name", sorted(RECORD_ROOTS))
    def test_record_roots_declare_fields_by_their_grammar(self, reg, type_name):
        descriptor = reg.get(type_name)
        structure = self.RECORD_ROOTS[type_name]
        assert descriptor.fields == tuple(f.name for f in dataclasses.fields(structure))
        assert [field for field, _ in descriptor.checks] == list(descriptor.fields)
        assert descriptor.checks == tuple(descriptor.recognizer.parts.items())

    def test_css_unit_recognizers_are_its_branches_merged(self, reg):
        unit = reg.get("CssUnit")
        assert (unit.fields, tuple(field for field, _ in unit.checks)) == (("value", "unit"),) * 2
        report = run_to_end(dict(unit.checks)["unit"], "zz")
        assert report == Failure(0, 'a unit or "auto"')

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
    # Each subtype's own overrides, sorted by field name.
    OVERRIDES = {"PxOrAuto": ["unit"], "Gmail": ["domain_left"], "UnixPath": ["separator"],
                 "WindowsPath": ["separator"], "HomeDotFile": ["dirs", "file_name"]}

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
            overrides = [field for field, _ in descriptor.checks[len(parent.checks):]]
            assert overrides == self.OVERRIDES[sub]

    def test_a_field_called_name_can_be_overridden(self):
        reg = build_registry()
        reg.register(subtype(reg.get("Email"), "Shouty", name=pattern("[A-Z!]+")))
        assert ok(reg, "Shouty", "AB@x.com").structure == Email("AB", "x", "com")
        want = ok(reg, "Email", "ab@x.com").narrow("Shouty")
        got = reg.from_raw("Shouty", "ab@x.com")
        assert isinstance(want, Err)
        assert _report(got) == _report(want) == (0, "/[A-Z!]+/")

    @pytest.mark.parametrize("ancestor,sub", PAIRS)
    def test_narrow_counts_the_tail_up_to_its_first_failure(self, reg, ancestor, sub):
        """narrow runs the entries of ``checks`` past the ancestor's that
        have a span, stopping after the first that fails."""
        tail = reg.get(sub).checks[len(reg.get(ancestor).checks):]
        assert tail
        stopped_early = 0
        for raw in self.inputs(ancestor, sub):
            wide = reg.from_raw(ancestor, raw)
            if isinstance(wide, Err):
                continue
            want = 0
            for field_name, recognizer in tail:
                span = wide.value.spans.get(field_name)
                if span is None:
                    continue
                want += 1
                if isinstance(run_to_end(recognizer, raw[span[0]:span[1]]), Failure):
                    stopped_early += want < len(tail)
                    break
            reset_field_checks()
            wide.value.narrow(sub)
            assert field_checks() == want, (ancestor, sub, raw)
        if len(tail) > 1:
            assert stopped_early

    SUFFIX_CHARS = "!@#./\\ -xZ9\u00e9"

    @pytest.mark.parametrize("sub", sorted({sub for _, sub in PAIRS} | {"Toll"}))
    def test_overrides_hold_inside_a_larger_grammar(self, sub):
        """Followed by a literal, a subtype's recognizer accepts the part
        its parent's parse ends at exactly when ``from_raw`` accepts it."""
        reg = build_registry()
        reg.register(subtype(reg.get("USPhone"), "Toll", area=pattern("8[0-9][0-9]")))
        descriptor = reg.get(sub)
        parent = reg.get(descriptor.parent)
        rng = random.Random(zlib.crc32(f"inside-{sub}".encode()))
        samples = accepted_strings(parent.name, 300)
        if sub in ACCEPTED_GENERATORS:
            samples += accepted_strings(sub, 100)
        verdicts = {True: 0, False: 0}
        for x in samples:
            s = "".join(rng.choice(self.SUFFIX_CHARS) for _ in range(rng.randint(1, 3)))
            head = parent.recognizer.run(x + s)
            if not (isinstance(head, Success) and head.end == len(x)):
                continue  # the parent reads into the suffix, or rejects
            want = isinstance(reg.from_raw(sub, x), Ok)
            got = run_to_end(seq(descriptor.recognizer, lit(s)), x + s)
            assert isinstance(got, Success) is want, (sub, x, s, got)
            verdicts[want] += 1
        assert min(verdicts.values()) >= 5, verdicts

    def test_parsing_a_subtype_counts_no_field_checks(self, reg):
        reset_field_checks()
        ok(reg, "HomeDotFile", "/home/.bashrc")
        err(reg, "Gmail", "a@hotmail.com")
        assert field_checks() == 0


class TestSpansSatisfyFieldRecognizers:
    """Every entry of a type's ``checks`` accepts the text its field's span
    covers, at every level of the chain."""

    @pytest.mark.parametrize("type_name", _REGISTRY.names())
    def test_each_span_is_accepted_by_its_field_recognizer(self, reg, type_name):
        checks = reg.get(type_name).checks
        for raw in accepted_strings(type_name, 300):
            spans = ok(reg, type_name, raw).spans
            for field_name, recognizer in checks:
                if field_name in spans:
                    start, end = spans[field_name]
                    out = run_to_end(recognizer, raw[start:end])
                    assert isinstance(out, Success), (type_name, raw, field_name, out)


def _registry_without_scans():
    """The builtin registry built again with every part given to ``record``
    stripped to its parse function and label, with no patterns, so
    that each record runs its parts' parse functions in turn."""
    import importlib.util

    import strtype.combinators
    import strtype.core
    from strtype.combinators import record

    def strip(part):
        if isinstance(part, Parser):
            return Parser(part.fn, part.label)
        name, p = part
        return name, Parser(p.fn, p.label)

    def record_without_scans(cls, *parts):
        out, printer = record(cls, *map(strip, parts)), record(cls, *parts)
        # Stripped parts cannot print: the record prints as the unstripped one.
        out.render, out.layout = printer.render, printer.layout
        return out

    spec = importlib.util.find_spec("strtype.builtins")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(strtype.combinators, "record", record_without_scans)
        patch.setattr(strtype.core, "record", record_without_scans)
        spec.loader.exec_module(module)
        return module.build_registry()


def _record_root_types():
    """Every type whose root's grammar is a ``record`` or an ``alt`` of them."""
    return [name for name in _REGISTRY.names()
            if _REGISTRY.get(([name] + _REGISTRY.ancestors(name))[-1]).recognizer.parts]


class TestRecordPartsScan:
    """A record whose parts all have trees parses with one ``re`` match. The
    same record over the parts stripped to their parse functions runs the
    step loop, and is the single match's oracle: it gives the same verdict,
    structure, spans and report."""

    ALPHABET = "a/\\.@#-_ 0123456789gmailhopxtré "

    @pytest.fixture(scope="class")
    def plain(self):
        return _registry_without_scans()

    def test_record_roots_are_the_ones_with_token_parts(self, plain):
        names = _record_root_types()
        assert names == ["CssColour", "CssUnit", "Email", "Gmail", "InnerR",
                         "PxOrAuto", "Sanitised", "USPhone", "UserName"]
        for name in names:
            assert all(p.trees is None for p in plain.get(name).recognizer.parts.values())
        # A root that is one record: each of its fields is a single token.
        for name in ["Email", "InnerR", "Sanitised", "USPhone", "UserName"]:
            parts = _REGISTRY.get(name).recognizer.parts.values()
            assert all(p.trees is not None for p in parts), name
        # Every root part is a token but CssUnit's value, the hand-written
        # number parser, and CssColour's channels, each an alt of two tokens
        # with different convs. CssUnit's unit, an alt of tokens, is one.
        without = {(name, field) for name in names
                   for field, p in _REGISTRY.get(name).recognizer.parts.items()
                   if p.trees is None}
        assert without == {("CssColour", "red"), ("CssColour", "green"),
                           ("CssColour", "blue"), ("CssUnit", "value")}

    @pytest.mark.parametrize("type_name", _record_root_types())
    def test_scans_agree_with_parse_functions(self, reg, plain, type_name):
        rng = random.Random(zlib.crc32(f"scan-{type_name}".encode()))
        accepted = 0
        for sample in accepted_strings(type_name, 200):
            for raw in [sample, *_mutations(rng, sample, self.ALPHABET)]:
                got, want = reg.from_raw(type_name, raw), plain.from_raw(type_name, raw)
                assert type(got) is type(want), (type_name, raw)
                if isinstance(got, Err):
                    assert _report(got) == _report(want), (type_name, raw)
                    assert got.error.detail == want.error.detail, (type_name, raw)
                    continue
                accepted += 1
                # The plain registry's structures are classes of its own module.
                assert repr(got.value.structure) == repr(want.value.structure), raw
                assert got.value.spans == want.value.spans, (type_name, raw)
                assert got.value.cast() == want.value.cast(), (type_name, raw)
        assert accepted >= 200


class Tally(Structure):
    """A user structure whose record has a converting part."""

    __slots__ = ("count", "label")

    def __init__(self, count: int, label: str):
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "label", label)


def _tally_registry():
    reg = build_registry()
    reg.register(StringType("Tally", record(
        Tally, ("count", pattern("[0-9]{1,4}").map(int, "d")), lit(" x "),
        ("label", pattern("[a-z]+")))))
    return reg


class TestDerivedCasts:
    """A record root's cast is the printer its grammar derives. Over generator
    structures of every record root, both opaque types and a user record with
    a converting part, it equals the hand-written reference cast, and parsing
    it back gives an equal structure and the spans the printer's layout gives."""

    CASES = {**REFERENCE_CASTS, "Tally": lambda t: f"{t.count} x {t.label}"}

    @staticmethod
    def samples(type_name):
        if type_name != "Tally":
            return accepted_strings(type_name, 300)
        rng = random.Random("tally")
        return [f"{rng.randrange(10000):0{rng.randint(1, 4)}d} x "
                + "".join(rng.choice("abcxyz") for _ in range(rng.randint(1, 6)))
                for _ in range(300)]

    @pytest.mark.parametrize("type_name", sorted(CASES))
    def test_derived_cast_is_the_reference_and_reparses(self, type_name):
        reg = _tally_registry()
        descriptor = reg.get(type_name)
        for raw in self.samples(type_name):
            structure = ok(reg, type_name, raw).structure
            text = descriptor.cast_fn(structure)
            assert text == self.CASES[type_name](structure), (type_name, raw)
            again = ok(reg, type_name, text)
            assert again.structure == structure, (type_name, raw)
            assert descriptor.recognizer.layout(structure) == (text, again.spans), raw

    def test_every_record_root_is_covered(self, reg):
        roots = {name for name in reg.names() if not reg.ancestors(name)}
        printed = {name for name in roots if reg.get(name).recognizer.layout is not None}
        assert printed == set(REFERENCE_CASTS)


class TestHandWrittenCasts:
    def test_the_hand_written_roots_keep_their_casts(self, reg):
        assert reg.get("FilePath").cast_fn is cast_path
        assert reg.get("EqualAandB").cast_fn is cast_equal_ab
        assert reg.get("Expr").cast_fn is expr_text
        for name in ("UnixPath", "WindowsPath", "HomeDotFile"):
            assert reg.get(name).cast_fn is cast_path

    def test_a_recognizer_that_cannot_print_needs_a_cast(self):
        with pytest.raises(RegistryError, match="cast_fn"):
            StringType("Path", _PATH)
        with pytest.raises(RegistryError, match="cast_fn"):
            StringType("Dashed", record(Tally, ("count", pattern("[0-9]+").map(int)),
                                        one_of("-/"), ("label", pattern("[a-z]+"))))
        assert StringType("Path", _PATH, cast_path).cast_fn is cast_path
