import itertools
import random
from dataclasses import dataclass

import pytest

from strtype.combinators import (
    Failure,
    NontermError,
    PatternError,
    Success,
    alt,
    chain_left,
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

    def test_then_pairs_values(self):
        p = lit("a").then(lit("b"))
        assert p.run("ab", 0) == Success(("a", "b"), 2)
        assert p.run("ax", 0) == Failure(1, '"b"')

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
        p = lit("a").then(spanned(pattern("[0-9]+")))
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
        return left.then(right)
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
