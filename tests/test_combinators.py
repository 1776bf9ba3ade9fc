import itertools
import random
from dataclasses import dataclass
from functools import partial

import pytest

import strtype.combinators
from strtype.combinators import (
    Failure,
    NontermError,
    Parser,
    PatternError,
    Success,
    alt,
    chain_left,
    check_to_end,
    forward,
    lit,
    many,
    one_of,
    pattern,
    record,
    run_to_end,
    satisfy,
    seq,
    some,
    spanned,
    succeed,
    times,
)
from strtype.patterns import TokenPattern, _Cls, _Seq, sequence_match


def outcomes(p, texts):
    return [p.run(t, 0) for t in texts]


class TestPrimitives:
    def test_outcomes_compare_by_class_and_value(self):
        assert Success(3, 3) != Failure(3, 3)
        assert Failure(3, 3) != Success(3, 3)
        assert Success("x", 1) != Failure(1, "x")
        assert Success(("a", [1]), 2) == Success(("a", [1]), 2)
        assert Success(1, 2) != Success(1, 3)
        assert Failure(0, '"a"') == Failure(0, '"a"')
        assert hash(Success("a", 1)) == hash(Success("a", 1))
        assert repr(Success(7, 1)) == "Success(value=7, end=1)"
        assert repr(Failure(0, "x")) == "Failure(pos=0, expected='x')"

    def test_outcomes_have_no_instance_dict(self):
        assert not hasattr(Success(1, 2), "__dict__")
        assert not hasattr(Failure(1, "x"), "__dict__")

    def test_succeed_consumes_nothing(self):
        assert succeed(7).run("abc", 1) == Success(7, 1)
        assert succeed(None).run("", 0) == Success(None, 0)

    def test_satisfy(self):
        digit = satisfy(str.isdigit, "a digit")
        assert digit.run("5x", 0) == Success("5", 1)
        assert digit.run("x5", 0) == Failure(0, "a digit")
        assert digit.run("", 0) == Failure(0, "a digit")

    def test_one_of(self):
        sep = one_of(" ./-")
        assert sep.run("-", 0) == Success("-", 1)
        assert sep.run(".x", 0) == Success(".", 1)
        assert isinstance(sep.run("5", 0), Failure)
        with pytest.raises(ValueError):
            one_of("")

    def test_lit(self):
        ab = lit("ab")
        assert ab.run("abc", 0) == Success("ab", 2)
        assert ab.run("ax", 0) == Failure(0, '"ab"')
        assert lit("b").run("ab", 1) == Success("b", 2)

    def test_pattern_longest_match(self):
        area = pattern("[2-9][0-9]{2}")
        assert area.run("555-", 0) == Success("555", 3)
        assert area.run("155", 0) == Failure(0, "/[2-9][0-9]{2}/")
        short_or_long = pattern("[0-9a-f]{3}|[0-9a-f]{6}")
        assert short_or_long.run("aabbcc", 0) == Success("aabbcc", 6)

    def test_pattern_construction_error(self):
        with pytest.raises(PatternError):
            pattern(r"(?=x)")

    def test_seq_collects_tuple(self):
        p = seq(lit("a"), lit("b"), lit("c"))
        assert p.run("abc", 0) == Success(("a", "b", "c"), 3)
        assert p.run("abx", 0) == Failure(2, '"c"')

    def test_map_and_bind(self):
        n = pattern("[0-9]+").map(int)
        assert n.run("42x", 0) == Success(42, 2)
        twice = n.bind(lambda k: times(lit("b"), k))
        assert twice.run("2bb", 0) == Success(["b", "b"], 3)
        assert twice.run("2b", 0) == Failure(2, '"b"')


class TestChoice:
    def test_ordered_choice_backtracks_to_original_position(self):
        p = alt(lit("aa"), lit("ab"))
        assert p.run("ab", 0) == Success("ab", 2)

    def test_branch_that_consumed_before_failing_does_not_pin_the_position(self):
        consuming = seq(lit("a"), lit("x"))
        assert consuming.run("ab", 0) == Failure(1, '"x"')
        assert alt(consuming, lit("ab")).run("ab", 0) == Success("ab", 2)

    def test_failure_reports_furthest_progress(self):
        p = alt(seq(lit("a"), lit("x")), lit("b"))
        out = p.run("ac", 0)
        assert out == Failure(1, '"x"')

    def test_tied_failures_merge_expectations(self):
        p = alt(lit("x"), lit("y"))
        assert p.run("z", 0) == Failure(0, '"x" or "y"')

    def test_identical_expectations_are_not_repeated(self):
        p = alt(lit("x"), lit("x"))
        assert p.run("z", 0) == Failure(0, '"x"')

    def test_a_choice_of_nothing_is_refused(self):
        with pytest.raises(ValueError):
            alt()

    def test_fallback_yields_default_without_consuming(self):
        sep = one_of(" ./-").fallback("")
        assert sep.run("5", 0) == Success("", 0)
        assert sep.run("-", 0) == Success("-", 1)


class TestRepetition:
    def test_many_zero_or_more(self):
        p = many(lit("ab"))
        assert p.run("ababx", 0) == Success(["ab", "ab"], 4)
        assert p.run("x", 0) == Success([], 0)

    def test_some_requires_one(self):
        p = some(one_of(" \t\n\r"))
        assert p.run("  x", 0) == Success([" ", " "], 2)
        assert isinstance(p.run("x", 0), Failure)

    def test_times_exact(self):
        p = times(satisfy(str.isdigit, "a digit"), 4)
        assert p.run("12345", 0) == Success(list("1234"), 4)
        assert p.run("123", 0) == Failure(3, "a digit")

    def test_nonterminating_repetition_is_detected(self):
        with pytest.raises(NontermError):
            many(succeed(1)).run("abc", 0)
        with pytest.raises(NontermError):
            some(succeed(1)).run("abc", 0)
        with pytest.raises(NontermError):
            many(lit("")).run("abc", 0)

    def test_greedy_repetition_matches_string_scan_oracle(self):
        p = many(lit("ab"))
        for n in range(0, 9):
            for chars in itertools.product("ab", repeat=n):
                text = "".join(chars)
                reps = 0
                while text.startswith("ab", reps * 2):
                    reps += 1
                assert p.run(text, 0) == Success(["ab"] * reps, reps * 2)

    def test_many_and_some_agree_on_all_short_strings(self):
        for body in (lit("a"), lit("ab"), one_of("ab")):
            via_many = many(body)
            via_some = alt(some(body), succeed([]))
            for n in range(0, 9):
                for chars in itertools.product("ab", repeat=n):
                    text = "".join(chars)
                    assert via_many.run(text, 0) == via_some.run(text, 0)


class TestChainLeft:
    def test_folds_leftward(self):
        num = pattern("[0-9]+").map(int)
        plus = lit("+").map(lambda _: lambda a, b: ("+", a, b))
        p = chain_left(num, plus)
        assert p.run("1+2+3", 0) == Success(("+", ("+", 1, 2), 3), 5)

    def test_dangling_operator_is_left_unconsumed(self):
        num = pattern("[0-9]+").map(int)
        plus = lit("+").map(lambda _: lambda a, b: a + b)
        p = chain_left(num, plus)
        assert p.run("1+2+", 0) == Success(3, 3)

    def test_single_operand(self):
        num = pattern("[0-9]+").map(int)
        plus = lit("+").map(lambda _: lambda a, b: a + b)
        assert chain_left(num, plus).run("7", 0) == Success(7, 1)

    def test_zero_width_round_is_detected(self):
        op = succeed(lambda a, b: a)
        operand = lit("").fallback("")
        with pytest.raises(NontermError):
            chain_left(operand, op).run("x", 0)


class TestLabelsAndSpans:
    def test_desc_replaces_expectation_keeps_position(self):
        area = pattern("[2-9][0-9]{2}").desc("a valid area code")
        assert area.run("155", 0) == Failure(0, "a valid area code")
        deep = seq(lit("a"), lit("x")).desc("ax pair")
        assert deep.run("ab", 0) == Failure(1, "ax pair")

    def test_outermost_desc_wins(self):
        p = lit("x").desc("inner").desc("outer")
        assert p.run("y", 0) == Failure(0, "outer")

    def test_desc_requires_label(self):
        with pytest.raises(ValueError):
            lit("x").desc("")

    def test_spanned_reports_consumed_range(self):
        p = seq(lit("a"), spanned(pattern("[0-9]+")))
        assert p.run("a123", 0) == Success(("a", ("123", 1, 4)), 4)


@dataclass(frozen=True)
class Pair:
    left: str
    right: str


class TestRecord:
    LEFT = pattern("[a-z]+")
    RIGHT = pattern("[0-9]*")

    def pair(self):
        return record(Pair, ("left", self.LEFT), lit("="), ("right", self.RIGHT))

    def test_fields_and_spans(self):
        assert self.pair().run("ab=12", 0) == Success(
            (Pair("ab", "12"), {"left": (0, 2), "right": (3, 5)}), 5)
        assert self.pair().run("xab=", 1) == Success(
            (Pair("ab", ""), {"left": (1, 3), "right": (4, 4)}), 4)

    def test_bare_parts_are_dropped(self):
        assert record(dict, lit("a"), lit("b")).run("abc", 0) == Success(({}, {}), 2)

    def test_a_field_named_twice_is_refused(self):
        # Its second part would hide the text the first consumed from every
        # check of the field.
        with pytest.raises(ValueError, match="'a'"):
            record(dict, ("a", lit("x")), lit("-"), ("a", lit("y")))

    def test_failure_passes_through(self):
        assert self.pair().run("ab12", 0) == Failure(2, '"="')
        assert self.pair().run("=1", 0) == self.LEFT.run("=1", 0)
        labelled = record(Pair, ("left", self.LEFT.desc("a name")), ("right", self.RIGHT))
        assert labelled.run("1", 0) == Failure(0, "a name")

    def test_equals_the_seq_spanned_map_form(self):
        q = seq(spanned(self.LEFT), lit("="), spanned(self.RIGHT)).map(lambda t: (
            Pair(t[0][0], t[2][0]),
            {"left": (t[0][1], t[0][2]), "right": (t[2][1], t[2][2])}))
        p = self.pair()
        for n in range(0, 6):
            for chars in itertools.product("a1=", repeat=n):
                text = "".join(chars)
                for pos in range(0, len(text) + 1):
                    assert p.run(text, pos) == q.run(text, pos), (text, pos)


class TestParts:
    """``record`` keeps its named parts on its parser, and ``alt`` merges its
    branches' parts field by field."""

    LEFT = pattern("[a-z]+")
    RIGHT = pattern("[0-9]+")

    def test_a_record_keeps_its_named_parts_in_order(self):
        pair = record(Pair, ("left", self.LEFT), lit("="), ("right", self.RIGHT))
        assert list(pair.parts.items()) == [("left", self.LEFT), ("right", self.RIGHT)]
        assert record(dict, lit("a")).parts == {}
        assert lit("a").parts == {} and self.LEFT.parts == {}

    def test_alt_of_two_records_merges_parts_per_field(self):
        short = pattern("[a-z]")
        p = alt(record(Pair, ("left", self.LEFT), lit("="), ("right", self.RIGHT)),
                record(Pair, ("left", short), lit("!"), ("right", lit("x"))))
        assert list(p.parts) == ["left", "right"]
        assert p.parts["left"].run("ab", 0) == Success("ab", 2)
        assert p.parts["left"].run("1", 0) == Failure(0, "/[a-z]+/ or /[a-z]/")
        assert p.parts["right"].run("x", 0) == Success("x", 1)
        assert p.parts["right"].run("?", 0) == Failure(0, '/[0-9]+/ or "x"')

    def test_a_field_in_one_branch_keeps_its_parser(self):
        p = self.pair_or_auto()
        assert list(p.parts) == ["left", "right"]
        assert p.parts["left"] is self.LEFT
        assert p.parts["right"].run("auto", 0) == Success("auto", 4)
        assert p.parts["right"].run("?", 0) == Failure(0, '/[0-9]+/ or "auto"')

    def test_a_branch_with_no_parts_gives_the_alt_no_parts(self):
        pair = record(Pair, ("left", self.LEFT), ("right", self.RIGHT))
        assert alt(pair, lit("x")).parts == {}
        assert alt(lit("x"), pair).parts == {}
        assert alt(pair, record(dict, lit("x"))).parts == {}
        assert (pair | lit("x")).parts == {}

    def pair_or_auto(self):
        return alt(record(Pair, ("left", self.LEFT), lit("="), ("right", self.RIGHT)),
                   record(partial(Pair, left=""), ("right", lit("auto"))))


class TestPrinter:
    """A record prints its structure from its parts: literals as themselves,
    fields by their parts' renders; ``layout`` adds each field's span."""

    NUMBER = pattern("[0-9]+").map(int, "d")
    WORD = pattern("[a-z]+")

    def test_literals_and_fields_print_in_order(self):
        pair = record(Pair, ("left", self.WORD), lit("="), ("right", pattern("[0-9]*")))
        assert pair.render(Pair("ab", "12")) == "ab=12"
        assert pair.layout(Pair("ab", "")) == ("ab=", {"left": (0, 2), "right": (3, 3)})

    def test_literals_print_verbatim(self):
        odd = record(Pair, lit("{'\"\\\n"), ("left", self.WORD), lit("}"),
                     ("right", self.WORD), lit("é"))
        text = "{'\"\\\nab}cdé"
        assert odd.run(text, 0).value[0] == Pair("ab", "cd")
        assert odd.render(Pair("ab", "cd")) == text
        assert odd.layout(Pair("ab", "cd")) == (text, {"left": (5, 7), "right": (8, 10)})

    def test_a_converting_part_prints_by_its_render(self):
        for render, text in [("03d", "007-x"), (lambda v: f"{v:03d}", "007-x"), ("d", "7-x")]:
            coded = record(Pair, ("left", pattern("[0-9]+").map(int, render)), lit("-"),
                           ("right", self.WORD))
            assert coded.render(Pair(7, "x")) == text
            assert coded.layout(Pair(7, "x")) == (text, {"left": (0, len(text) - 2),
                                                         "right": (len(text) - 1, len(text))})
            assert coded.run(text, 0).value[0] == Pair(7, "x")

    def test_layout_reads_each_field_back(self):
        # A render that is no inverse prints, but its field does not read back.
        off = record(Pair, ("left", pattern("[0-9]+").map(int, lambda v: str(v + 1))),
                     lit("-"), ("right", self.WORD))
        assert off.render(Pair(7, "x")) == "8-x"
        with pytest.raises(ValueError, match="reads back"):
            off.layout(Pair(7, "x"))
        with pytest.raises(ValueError, match="reads back"):
            record(Pair, ("left", self.WORD), ("right", self.WORD)).layout(Pair(1, "x"))

    def test_an_unnamed_part_prints_its_first_choice_if_a_literal(self):
        sep = record(Pair, ("left", self.WORD), (lit("-") | one_of(" /")).fallback(""),
                     ("right", self.WORD))
        assert sep.run("ab/cd", 0).value[0] == Pair("ab", "cd")
        assert sep.render(Pair("ab", "cd")) == "ab-cd"
        for unnamed in [one_of("-/"), pattern("[0-9]"), pattern(r"\d"), one_of(" /") | lit("-"),
                        seq(lit("-"))]:
            bare = record(Pair, ("left", self.WORD), unnamed, ("right", self.WORD))
            assert bare.render is None and bare.layout is None, unnamed

    def test_parts_that_do_not_print(self):
        nested = record(Pair, ("left", self.WORD), lit("="), ("right", self.WORD))
        for part in [pattern("[0-9]+").map(int), nested, seq(self.WORD), self.WORD | self.NUMBER]:
            p = record(Pair, ("left", part), lit(":"), ("right", self.WORD))
            assert p.render is None and p.layout is None, part
        assert record(dict, ("class", self.WORD)).render is None

    def test_alt_prints_with_the_first_branch_whose_fields_are_set(self):
        number = record(Pair, ("left", self.NUMBER), lit("="), ("right", self.WORD))
        auto = record(partial(Pair, left=None), ("right", lit("auto")))
        p = alt(number, auto, record(Pair, ("left", pattern("[0-9]")), ("right", self.WORD)))
        assert p.render(Pair(3, "x")) == "3=x"
        assert p.render(Pair(None, "auto")) == "auto"
        assert p.layout(Pair(None, "auto")) == ("auto", {"right": (0, 4)})
        assert p.layout(Pair(3, "x")) == ("3=x", {"left": (0, 1), "right": (2, 3)})
        assert alt(number, auto).render(Pair(None, None)) == "None"  # the last branch
        with pytest.raises(ValueError, match="reads back"):
            p.layout(Pair(None, 5))  # the auto branch, whose one field is set
        only = alt(number, record(Pair, ("left", self.WORD), one_of("-/"), ("right", self.WORD)))
        assert only.render is number.render and only.layout is number.layout
        assert alt(lit("a"), lit("b")).render == "" and alt(self.NUMBER, lit("b")).render is None


class TestForward:
    def test_recursive_grammar(self):
        nest = forward()
        nest.define(alt(seq(lit("("), nest, lit(")")).map(lambda t: t[1] + 1),
                        succeed(0)))
        assert nest.run("((()))", 0) == Success(3, 6)

    def test_use_before_define(self):
        with pytest.raises(RuntimeError):
            forward().run("x", 0)

    def test_forward_to_a_forward_defined_later(self):
        outer, inner = forward(), forward()
        outer.define(inner)
        with pytest.raises(RuntimeError):
            outer.run("x", 0)
        inner.define(lit("x"))
        assert outer.run("x", 0) == Success("x", 1)
        assert outer.run("y", 0) == Failure(0, '"x"')

    def test_define_twice_is_refused(self):
        p = forward()
        p.define(lit("x"))
        with pytest.raises(RuntimeError):
            p.define(lit("y"))


class TestRunToEnd:
    def test_accepts_only_full_consumption(self):
        digit = satisfy(str.isdigit, "a digit")
        assert run_to_end(digit, "1") == Success("1", 1)
        assert run_to_end(digit, "1x") == Failure(1, "end of input")
        assert run_to_end(digit, "x") == Failure(0, "a digit")
        assert run_to_end(many(digit), "") == Success([], 0)


def random_parser(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return lit("".join(rng.choice("abcd") for _ in range(rng.randrange(1, 3))))
        if kind == 1:
            return one_of("".join(rng.sample("abcd", rng.randrange(1, 4))))
        return succeed(rng.randrange(10))
    kind = rng.randrange(3)
    left = random_parser(rng, depth - 1)
    right = random_parser(rng, depth - 1)
    if kind == 0:
        return seq(left, right)
    if kind == 1:
        return alt(left, right)
    return left.map(lambda v: ("tag", v))


def random_inputs(rng, count=25):
    texts = ["", "a", "ab", "abcd", "dcba"]
    while len(texts) < count:
        texts.append("".join(rng.choice("abcd") for _ in range(rng.randrange(0, 7))))
    return texts


class TestLaws:
    def test_functor_identity_and_composition(self):
        rng = random.Random(7)
        f = lambda v: (v, "f")
        g = lambda v: ("g", v)
        for _ in range(60):
            p = random_parser(rng)
            texts = random_inputs(rng)
            assert outcomes(p.map(lambda v: v), texts) == outcomes(p, texts)
            assert outcomes(p.map(f).map(g), texts) == outcomes(p.map(lambda v: g(f(v))), texts)

    def test_monad_left_identity(self):
        rng = random.Random(8)
        for _ in range(60):
            k = random_parser(rng)
            f = lambda v: k.map(lambda w: (v, w))
            value = rng.randrange(100)
            texts = random_inputs(rng)
            assert outcomes(succeed(value).bind(f), texts) == outcomes(f(value), texts)

    def test_monad_right_identity(self):
        rng = random.Random(9)
        for _ in range(60):
            p = random_parser(rng)
            texts = random_inputs(rng)
            assert outcomes(p.bind(succeed), texts) == outcomes(p, texts)

    def test_monad_associativity(self):
        rng = random.Random(10)
        for _ in range(40):
            p = random_parser(rng)
            k1 = random_parser(rng)
            k2 = random_parser(rng)
            f = lambda v: k1.map(lambda w: (v, w))
            g = lambda v: k2.map(lambda w: (w, v))
            texts = random_inputs(rng)
            assert (outcomes(p.bind(f).bind(g), texts)
                    == outcomes(p.bind(lambda v: f(v).bind(g)), texts))

    def test_alt_is_idempotent(self):
        rng = random.Random(11)
        for _ in range(60):
            p = random_parser(rng)
            texts = random_inputs(rng)
            assert outcomes(alt(p, p), texts) == outcomes(p, texts)

    def test_determinism_and_no_overconsumption(self):
        rng = random.Random(12)
        for _ in range(60):
            p = random_parser(rng)
            for text in random_inputs(rng):
                for pos in range(0, len(text) + 1):
                    first = p.run(text, pos)
                    second = p.run(text, pos)
                    assert first == second
                    if isinstance(first, Success):
                        assert pos <= first.end <= len(text)
                    else:
                        assert pos <= first.pos <= len(text)


# The hand-written loops ``some``, ``times`` and ``chain_left`` had before
# they were built from ``seq`` and ``many``, kept as their oracles.

def loop_some(p):
    rest = many(p)
    def parse(text, pos):
        first = p.fn(text, pos)
        if isinstance(first, Failure):
            return first
        if first.end == pos:
            raise NontermError(
                f"repetition body consumed no input at position {pos}")
        more = rest.fn(text, first.end)
        return Success([first.value] + more.value, more.end)
    return Parser(parse)


def loop_times(p, n):
    def parse(text, pos):
        values = []
        cur = pos
        for _ in range(n):
            out = p.fn(text, cur)
            if isinstance(out, Failure):
                return out
            values.append(out.value)
            cur = out.end
        return Success(values, cur)
    return Parser(parse)


def loop_chain_left(operand, operator):
    def parse(text, pos):
        first = operand.fn(text, pos)
        if isinstance(first, Failure):
            return first
        acc = first.value
        cur = first.end
        while True:
            op = operator.fn(text, cur)
            if isinstance(op, Failure):
                break
            nxt = operand.fn(text, op.end)
            if isinstance(nxt, Failure):
                break
            if nxt.end == cur:
                raise NontermError(
                    f"repetition body consumed no input at position {cur}")
            acc = op.value(acc, nxt.value)
            cur = nxt.end
        return first if cur == first.end else Success(acc, cur)
    return Parser(parse)


def outcome_or_nonterm(p, text, pos):
    try:
        return p.run(text, pos)
    except NontermError as e:
        return ("NontermError", str(e))


class TestComposedRepetition:
    """``some``, ``times`` and ``chain_left`` give the outcome, or raise the
    ``NontermError``, that their former hand-written loops did."""

    def test_agree_with_the_loops_on_random_bodies(self):
        rng = random.Random(17)
        for _ in range(200):
            p = random_parser(rng)
            q = random_parser(rng).map(lambda v: lambda a, b: (a, v, b))
            pairs = [(some(p), loop_some(p)), (chain_left(p, q), loop_chain_left(p, q))]
            pairs += [(times(p, n), loop_times(p, n)) for n in range(4)]
            for text in random_inputs(rng):
                for pos in range(0, len(text) + 1):
                    for composed, loop in pairs:
                        assert (outcome_or_nonterm(composed, text, pos)
                                == outcome_or_nonterm(loop, text, pos)), (text, pos)


# The parse functions ``satisfy``, the three token constructors and ``map``,
# ``desc`` and ``fallback`` had before tokens were declared by their patterns,
# kept as their oracles.

def closure_satisfy(pred, label):
    def parse(text, pos):
        if pos < len(text) and pred(text[pos]):
            return Success(text[pos], pos + 1)
        return Failure(pos, label)
    return Parser(parse, label)


def closure_one_of(chars):
    members = frozenset(chars)
    label = f"one of {chars!r}"
    def parse(text, pos):
        if pos < len(text) and text[pos] in members:
            return Success(text[pos], pos + 1)
        return Failure(pos, label)
    return Parser(parse, label)


def closure_lit(expected):
    label = f'"{expected}"'
    def parse(text, pos):
        if text.startswith(expected, pos):
            return Success(expected, pos + len(expected))
        return Failure(pos, label)
    return Parser(parse, label)


def closure_pattern(source):
    compiled = TokenPattern(source)
    label = f"/{source}/"
    def parse(text, pos):
        end = compiled.match_end(text, pos)
        if end is None:
            return Failure(pos, label)
        return Success(text[pos:end], end)
    return Parser(parse, label)


def closure_map(p, f):
    def parse(text, pos):
        out = p.fn(text, pos)
        if isinstance(out, Failure):
            return out
        return Success(f(out.value), out.end)
    return Parser(parse, p.label)


def closure_desc(p, label):
    def parse(text, pos):
        out = p.fn(text, pos)
        if isinstance(out, Failure):
            return Failure(out.pos, label)
        return out
    return Parser(parse, label)


def closure_fallback(p, default):
    def parse(text, pos):
        out = p.fn(text, pos)
        if isinstance(out, Failure):
            return Success(default, pos)
        return out
    return Parser(parse, p.label)


TOKEN_ALPHABET = "abé  1"
TOKEN_SOURCES = ["[ab]+", "é*", "[^a]", "(ab|a)*1?", "[0-9]{1,3}", ".*", "a?"]
PREDICATES = [str.isalpha, str.isdigit, lambda c: c in "bé"]


def random_token(rng, depth=3, sources=TOKEN_SOURCES):
    """A token and the same parser built from the closures above: one of
    the four constructors under up to ``depth`` random ``map``, ``desc``
    and ``fallback`` layers. A pattern's source is drawn from ``sources``."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            chars = "".join(rng.choice(TOKEN_ALPHABET) for _ in range(rng.randrange(3)))
            return lit(chars), closure_lit(chars)
        if kind == 1:
            chars = "".join(rng.sample(TOKEN_ALPHABET, rng.randrange(1, 4)))
            return one_of(chars), closure_one_of(chars)
        if kind == 2:
            pred = rng.choice(PREDICATES)
            return satisfy(pred, "a char"), closure_satisfy(pred, "a char")
        source = rng.choice(sources)
        return pattern(source), closure_pattern(source)
    token, closure = random_token(rng, depth - 1, sources)
    kind = rng.randrange(3)
    if kind == 0:
        tag = rng.randrange(10)
        f = lambda v: (tag, v)
        return token.map(f), closure_map(closure, f)
    if kind == 1:
        label = f"label {rng.randrange(10)}"
        return token.desc(label), closure_desc(closure, label)
    default = rng.choice(["", "", None, "x"])
    return token.fallback(default), closure_fallback(closure, default)


def random_texts(rng, count=12):
    texts = ["", "é", "ab1", " b"]
    while len(texts) < count:
        texts.append("".join(rng.choice(TOKEN_ALPHABET) for _ in range(rng.randrange(8))))
    return texts


def first_end(token, text, pos):
    """Where the first of ``token``'s choices that matches at ``pos`` ends,
    or None: ordered choice across the choices, longest match in each."""
    return next((end for tree in token.trees
                 if (end := tree.match_end(text, pos)) is not None), None)


class TestTokens:
    """A token's parse function is derived from its choices, ``conv`` and
    label, and gives what the hand-written closures gave."""

    def test_tree_and_conv_agree_with_fn_and_the_closures(self):
        rng = random.Random(18)
        tokens = 0
        for _ in range(400):
            token, closure = random_token(rng)
            tokens += token.trees is not None
            for text in random_texts(rng):
                for pos in range(len(text) + 1):
                    out = token.fn(text, pos)
                    assert out == closure.fn(text, pos), (token, text, pos)
                    if token.trees is None:
                        continue
                    end = first_end(token, text, pos)
                    if end is None:
                        assert out == Failure(pos, token.label), (token, text, pos)
                    else:
                        value = text[pos:end]
                        if token.conv is not None:
                            value = token.conv(value)
                        assert out == Success(value, end), (token, text, pos)
        assert tokens > 200

    def test_constructors_map_and_desc_give_tokens(self):
        for token in (lit("ab"), one_of("ab"), pattern("[a-z]+"), lit("a") | one_of("bc")):
            assert all(isinstance(tree, TokenPattern) for tree in token.trees)
            assert token.conv is None
            assert token.desc("x").trees is token.trees
            assert token.map(len).trees is token.trees
            assert token.map(len).conv is len
            assert token.map(len).desc("x").label == "x"
        for token in (lit("ab"), one_of("ab"), pattern("[a-z]+")):
            assert len(token.trees) == 1

    def test_only_an_empty_default_over_bare_text_keeps_a_tree(self):
        assert one_of("ab").fallback("").trees is not None
        assert (lit("a") | lit("b")).fallback("").trees is not None
        assert one_of("ab").fallback(None).trees is None
        assert one_of("ab").map(len).fallback("").trees is None
        assert pattern("a*").fallback("").run("b", 0) == Success("", 0)

    def test_other_parsers_have_no_tree(self):
        digit = one_of("12")
        for p in (seq(digit), many(digit), succeed(1),
                  record(Pair, ("left", digit), ("right", digit)),
                  seq(digit).map(len), seq(digit).desc("x"),
                  satisfy(str.isdigit, "a digit"), alt(digit, satisfy(str.isdigit, "a digit")),
                  alt(digit.map(int), digit.map(int)), alt(digit, digit.map(int))):
            assert p.trees is None and p.conv is None
        # An alt of tokens with no conv is a token: their choices in order.
        both = alt(digit, digit)
        assert both.trees == digit.trees * 2 and both.conv is None and both.label == digit.label

    def test_an_empty_default_keeps_a_token_that_matches_empty(self, monkeypatch):
        """A token whose pattern matches "" cannot fail, so ``fallback("")``
        parses as it does: its appended empty choice is never reached, and
        a record over it still compiles its single match."""
        compiled = []
        def counted(trees):
            compiled.append(sequence_match(trees))
            return compiled[-1]
        monkeypatch.setattr(strtype.combinators, "sequence_match", counted)
        for token in (pattern("a*"), pattern("a|b?"), lit(""), one_of("ab").fallback(""),
                      pattern("a*") | lit("b")):
            optional = token.fallback("")
            assert optional.trees[:-1] == token.trees and optional.trees[-1].source == ""
            assert all(tree.plain_tree() is not None for tree in optional.trees)
            for text in ("", "a", "ab", "b", "c"):
                assert optional.run(text, 0) == token.run(text, 0), (token, text)
            assert record(dict, ("f", optional)).run("", 0).end == 0
            assert compiled.pop() is not None, token

    def test_lit_and_one_of_escape_every_character(self):
        chars = [*"\\()[]{}*+?.|^$-", " ", "\n", "\r", "\x00", "é", "\U0001f600", "\ud800"]
        texts = ["", *(t for c in chars for t in (c, c + c, "a" + c))]
        sample = "".join(texts)
        for t in texts:
            token = lit(t)
            for pos in range(len(sample) + 1):
                want = pos + len(t) if sample.startswith(t, pos) else None
                assert token.trees[0].match_end(sample, pos) == want, (t, pos)
        for c in chars:
            token = one_of(c + "q")
            assert token.run(c) == Success(c, 1), c
            assert token.run("x") == Failure(0, token.label), c

    def test_record_reports_a_token_part_as_its_fn_does(self):
        p = record(Pair, ("left", pattern("[0-9]+").map(int).desc("a number")),
                   lit(","), ("right", one_of("xy").fallback("")))
        assert p.run("12,x", 0) == Success((Pair(12, "x"), {"left": (0, 2), "right": (3, 4)}), 4)
        assert p.run("12,", 0) == Success((Pair(12, ""), {"left": (0, 2), "right": (3, 3)}), 3)
        assert p.run("a", 0) == Failure(0, "a number")
        assert p.run("12;", 0) == Failure(2, '","')

    def test_tokens_keep_their_trees(self):
        (tree,) = lit("aé").trees
        assert tree.source == "a\\é"
        assert tree._tree == _Seq((_Cls(((97, 97),)), _Cls(((233, 233),))))
        assert lit("").trees[0]._tree == _Seq(())
        (tree,) = one_of("cbaé").trees
        assert tree.source == "[cba\\é]"
        assert tree._tree == _Cls(((97, 99), (233, 233)))
        word = pattern("[a-z]+")
        (tree,) = word.trees
        assert isinstance(tree, TokenPattern) and tree.source == "[a-z]+"
        assert word.map(len).desc("x").trees is word.trees
        # The empty default is one more choice, the last.
        assert [t.source for t in word.fallback("").trees] == ["[a-z]+", ""]
        assert word.fallback("").trees[0] is tree
        assert word.fallback("").trees[1]._tree == _Seq(())
        assert word.fallback(None).trees is None
        assert satisfy(str.isdigit, "a digit").trees is None
        assert satisfy(str.isdigit, "a digit").fallback("").trees is None
        assert alt(word, word).trees == (tree, tree)
        assert [t.source for t in alt(word, lit("-") | word).trees] == ["[a-z]+", "\\-", "[a-z]+"]
        for p in (seq(word), many(word), succeed(1),
                  record(Pair, ("left", word), ("right", word)), seq(word).desc("x")):
            assert p.trees is None


# Patterns that walk the DFA, so a record holding one runs the step loop.
DFA_SOURCES = ["(ab)*a?", "(a*)*b", "[0-9a-f]*[0-9]"]
def run_to_end_failure(p, text):
    out = run_to_end(p, text)
    return out if isinstance(out, Failure) else None


class TestCheckToEnd:
    """``check_to_end`` gives ``run_to_end``'s failure, or None where it
    succeeds, on tokens, alts of them (tokens too, when no branch has a
    ``conv``) and any other parser."""

    CASES = [alt(lit("p"), lit("px")), alt(pattern("a*"), lit("b")),
             alt(lit("b"), pattern("a*")), alt(alt(lit("a"), lit("b")), lit("p")),
             alt(alt(lit("a"), lit("b")), alt(lit("a"), lit("b"))),
             alt(lit("a"), satisfy(str.isalpha, "a letter")), lit("px") | lit("auto")]

    def test_agrees_with_run_to_end_on_tokens_and_alts(self):
        rng = random.Random(20)
        parsers = list(self.CASES)
        for _ in range(400):
            parsers.append(random_token(rng)[0])
            branches = [random_token(rng)[0] for _ in range(rng.randint(1, 3))]
            parsers.append(alt(*branches))
            # The same with no conv, and a literal: mostly a token.
            parsers.append(alt(*(b for b in branches if b.conv is None), lit("p")))
        texts = ["", "p", "px", "pxa", "a", "aab", "b", "ba", "auto", "x"]
        for p in parsers:
            for text in texts + random_texts(rng):
                assert check_to_end(p, text) == run_to_end_failure(p, text), (p, text)
        # Plenty of tokens, of one choice and of several, take the
        # patterns-only path, and plenty of other parsers run_to_end's.
        assert sum(p.trees is not None and len(p.trees) == 1 for p in parsers) > 200
        assert sum(p.trees is not None and len(p.trees) > 1 for p in parsers) > 120
        assert sum(p.trees is None for p in parsers) > 200

    def test_joins_labels_as_alt_does(self):
        assert check_to_end(alt(lit("p"), lit("px")), "px") == Failure(1, "end of input")
        assert check_to_end(self.CASES[4], "x") == run_to_end(self.CASES[4], "x")
        assert check_to_end(alt(lit("a"), lit("b"), lit("a")), "x") == \
            Failure(0, '"a" or "b" or "a"')
        assert alt(lit("a"), lit("a")).label == '"a"'

    def test_agrees_with_run_to_end_on_every_builtin_check(self):
        from generators import ACCEPTED_GENERATORS, accepted_strings
        from strtype.builtins import build_registry

        reg = build_registry()
        rng = random.Random(21)
        checked = 0
        for name in reg.names():
            checks = reg.get(name).checks
            for source in [name, *reg.ancestors(name)]:
                if source not in ACCEPTED_GENERATORS:
                    continue
                for raw in accepted_strings(source, 30):
                    spans = reg.from_raw(source, raw).value.spans
                    for field, p in checks:
                        if field not in spans:
                            continue
                        start, end = spans[field]
                        text = raw[start:end]
                        edits = [text]
                        for _ in range(6):
                            i = rng.randrange(len(text) + 1)
                            insert = rng.choice(["", rng.choice(raw + "x/\\.@\u00e9")])
                            edits.append(text[:i] + insert + text[i + rng.randint(0, 1):])
                        for edited in edits:
                            assert check_to_end(p, edited) == run_to_end_failure(p, edited), \
                                (name, field, edited)
                            checked += 1
        assert checked > 5000, checked


RECORD_ALPHABET = "ab\n\u00e91 0f"


# Alts of tokens whose ordered choice differs from a longest match over
# their union: a prefix of a later choice, a nullable first choice, and a
# choice on the DFA.
RECORD_ALTS = [lambda: lit("p") | lit("px"), lambda: pattern("a*") | lit("b"),
               lambda: lit("a") | pattern("(a*)*b")]


def random_alt(rng):
    """An ``alt`` of 1-3 random tokens with no ``conv``, so that it is
    mostly a token too, or one of ``RECORD_ALTS``."""
    branches = [token for _ in range(rng.randint(1, 3))
                if (token := random_token(rng, sources=TOKEN_SOURCES + DFA_SOURCES)[0]).conv is None]
    if not branches or rng.random() < 0.2:
        return rng.choice(RECORD_ALTS)()
    return alt(*branches)


def random_record_parts(rng):
    """1-4 parts for ``record``, named or not, each a token stack or an
    ``alt`` of them, and how many are alts. A part that is not a token, or
    has a pattern that walks the DFA, is mostly redrawn, so that most
    records take the single match."""
    parts = []
    alts = 0
    for i in range(rng.randint(1, 4)):
        is_alt = rng.random() < 0.3
        for _ in range(4):
            token = random_alt(rng) if is_alt else random_token(rng, sources=TOKEN_SOURCES + DFA_SOURCES)[0]
            if token.trees is not None and sequence_match([token.trees]) is not None:
                break
            if rng.random() < 0.2:
                break
        alts += is_alt
        parts.append(token if rng.random() < 0.3 else (f"f{i}", token))
    return parts, alts


def strip(part):
    """``part`` reduced to its parse function and label, so that a record
    over it runs the step loop."""
    if isinstance(part, Parser):
        return Parser(part.fn, part.label)
    name, p = part
    return name, Parser(p.fn, p.label)


class TestSingleMatch:
    """A record whose parts are all tokens, none of them with a pattern that
    walks the DFA, parses with one ``re`` match. It gives what the step loop
    gives over the same parts stripped to their parse functions: ordered
    choice across a token's choices, longest match inside each."""

    def test_agrees_with_the_step_loop(self, monkeypatch):
        compiled = []

        def counted(trees):
            match = sequence_match(trees)
            compiled.append(match is not None)
            return match

        monkeypatch.setattr(strtype.combinators, "sequence_match", counted)
        rng = random.Random(19)
        records = 1000
        with_alts = 0
        for _ in range(records):
            parts, alts = random_record_parts(rng)
            single, stepped = record(dict, *parts), record(dict, *map(strip, parts))
            texts = ["", "\n", "\u00e9", "px", "pxb", "aab",
                     *("".join(rng.choice(RECORD_ALPHABET) for _ in range(rng.randrange(1, 9)))
                       for _ in range(8))]
            before = len(compiled)
            for text in texts:
                for pos in range(len(text) + 1):
                    assert single.fn(text, pos) == stepped.fn(text, pos), (parts, text, pos)
            with_alts += alts > 0 and len(compiled) > before and compiled[-1]
        # Each record compiles at its first parse, if all its parts are tokens.
        assert sum(compiled) > records // 2, (sum(compiled), len(compiled))
        assert not all(compiled)
        assert with_alts > 100, with_alts

    def test_whole_gives_what_run_to_end_gives_on_the_step_loop(self):
        rng = random.Random(29)
        for _ in range(400):
            parts, _ = random_record_parts(rng)
            single, stepped = record(dict, *parts), record(dict, *map(strip, parts))
            assert stepped.whole is not None and Parser(stepped.fn).whole is None
            for text in ["", "px", "aab", *("".join(rng.choice(RECORD_ALPHABET)
                                                for _ in range(rng.randrange(1, 7)))
                                        for _ in range(6))]:
                want = run_to_end(stepped, text)
                got = single.whole(text)
                assert got == (want if isinstance(want, Failure) else want.value), (parts, text)

    def test_fields_are_positional_only_in_the_class_order(self):
        from strtype.patterns import Structure

        class Pair(Structure):
            __slots__ = ("a", "b")

            def __init__(self, a, b):
                object.__setattr__(self, "a", a)
                object.__setattr__(self, "b", b)

        a, b = pattern("[a-z]+"), pattern("[0-9]+")
        forward, backward = record(Pair, ("a", a), ("b", b)), record(Pair, ("b", b), ("a", a))
        assert forward.whole("x1") == (Pair("x", "1"), {"a": (0, 1), "b": (1, 2)})
        assert backward.whole("1x") == (Pair("x", "1"), {"b": (0, 1), "a": (1, 2)})
        assert backward.run("1x", 0) == Success(backward.whole("1x"), 2)
        assert record(partial(Pair, a="-"), ("b", b)).whole("12") == (Pair("-", "12"), {"b": (0, 2)})
        # A part on the DFA leaves the step loop, whose answer ``whole`` gives.
        dfa = record(Pair, ("a", pattern("(a*)*b")), ("b", b))
        assert dfa.whole("aab1") == (Pair("aab", "1"), {"a": (0, 3), "b": (3, 4)})
        assert dfa.whole("aab1x") == Failure(4, "end of input")
        assert dfa.whole("aa") == Failure(0, "/(a*)*b/")

    def test_reports_where_and_what_the_step_loop_reports(self):
        p = record(dict, ("w", pattern("[a-z]+").map(len)), lit("@"),
                   ("d", one_of("xy").fallback("")), lit("."))
        assert p.run("ab@x.", 0) == Success(({"w": 2, "d": "x"}, {"w": (0, 2), "d": (3, 4)}), 5)
        assert p.run("ab@.", 0) == Success(({"w": 2, "d": ""}, {"w": (0, 2), "d": (3, 3)}), 4)
        assert p.run("1", 0) == Failure(0, "/[a-z]+/")
        assert p.run("ab", 0) == Failure(2, '"@"')
        assert p.run("ab@x", 0) == Failure(4, '"."')
        assert p.run("-ab@x.", 1) == Success(({"w": 2, "d": "x"}, {"w": (1, 3), "d": (4, 5)}), 6)

    def test_a_record_compiles_only_its_single_match(self):
        word = pattern("[a-z]+")
        assert record(dict, ("w", word)).run("ab", 0) == Success(({"w": "ab"}, {"w": (0, 2)}), 2)
        assert word.trees[0]._match is None

    def test_a_pattern_on_the_dfa_gives_no_single_match(self):
        dfa = TokenPattern("(a*)*b")
        assert sequence_match([(TokenPattern(""),), (dfa,)]) is None
        assert sequence_match([(TokenPattern("((a*)*b)?"),)]) is None
        assert sequence_match([(TokenPattern("a"), dfa)]) is None
        assert sequence_match([(TokenPattern("(a+)?"),)]) is not None
        assert sequence_match([(TokenPattern("a"), TokenPattern("(a+)?"))]) is not None

