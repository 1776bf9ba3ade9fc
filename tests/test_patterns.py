import ast
import inspect
import itertools
import random
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import strtype.builtins
from strtype.combinators import lit
from strtype.patterns import (_TOP, PatternError, TokenPattern, _Alt, _charset, _Cls,
                              _complement, _merged, _regex_source, _Rep, _Seq)


def oracle_end(source, text, pos):
    """Longest match via re, tried prefix by prefix.

    re shares membership semantics with the engine given DOTALL, since the
    engine's ``.`` matches ``\\n``, and ASCII, since the engine's ``\\d``,
    ``\\w`` and ``\\s`` are ASCII; only its search strategy differs, so
    exhaustive fullmatch over prefixes is an independent longest-match
    oracle.
    """
    compiled = re.compile(source, re.DOTALL | re.ASCII)
    best = None
    for end in range(pos, len(text) + 1):
        if compiled.fullmatch(text, pos, end):
            best = end
    return best


def reachable_ends(node, text, starts):
    """The positions where a match of the pattern tree ``node`` can end,
    starting at any position in ``starts``.

    It works on sets of positions, node by node, so its cost is polynomial
    in the text's length however deeply repeats nest. It shares only the
    reader's tree with the engine: no NFA, no DFA and no ``re``.
    """
    if isinstance(node, _Cls):
        return {i + 1 for i in starts if i < len(text)
                and any(low <= ord(text[i]) <= high for low, high in node.spans)}
    if isinstance(node, _Seq):
        for part in node.parts:
            starts = reachable_ends(part, text, starts)
        return set(starts)
    if isinstance(node, _Alt):
        return set().union(*(reachable_ends(option, text, starts) for option in node.options))
    assert isinstance(node, _Rep), node
    cur = set(starts)
    found = set(cur) if node.low == 0 else set()
    for copies in range(1, (node.low if node.high is None else node.high) + 1):
        cur = reachable_ends(node.node, text, cur)
        if copies >= node.low:
            found |= cur
    if node.high is None:
        # Reaching from a set is reaching from each member, so only the
        # positions first reached in a round need a further copy.
        new = cur
        while new:
            new = reachable_ends(node.node, text, new) - found
            found |= new
    return found


def tree_oracle_end(p, text, pos):
    """Longest match of ``p``'s tree at ``pos`` by :func:`reachable_ends`."""
    return max(reachable_ends(p._tree, text, {pos}), default=None)


def ends(p, text, pos):
    """``p``'s match end from the engine it chose, checked against its DFA
    walk, which every pattern has."""
    end = p.match_end(text, pos)
    assert end == p._dfa_end(text, pos), (p, text, pos)
    return end


def takes_re(p):
    """Whether ``p``'s first call chose ``re`` over the DFA."""
    p.match_end("", 0)
    return p._match is not False


class TestConstruction:
    @pytest.mark.parametrize("bad", [
        r"(?:ab)",
        r"(?=x)",
        r"a\1",
        r"\1",
        r"\q",
        r"\b",
        r"[\d]",
        "a[",
        "[]",
        "[z-a]",
        "a{3,1}",
        "a{600}",
        "*a",
        "(ab",
        "ab)",
        "a^b",
        "a$",
        "a\\",
        "a{x}",
        # re reads a non-ASCII digit in braces as literal text.
        "a{٣}",
        "a{1,٣}",
    ])
    def test_unsupported_syntax_is_rejected(self, bad):
        with pytest.raises(PatternError):
            TokenPattern(bad)

    @pytest.mark.parametrize("bad, message", [
        ("a{2", "expected '}' at index 3"),
        # Inside a class, as outside one, a backslash must escape something.
        ("[a\\", "dangling escape at index 3"),
    ])
    def test_rejections_say_what_is_wrong_and_where(self, bad, message):
        with pytest.raises(PatternError, match=re.escape(message)):
            TokenPattern(bad)

    def test_repr_shows_the_source(self):
        assert repr(TokenPattern("a+")) == "TokenPattern('a+')"

    def test_supported_syntax_compiles(self):
        for ok in ["[2-9][0-9]{2}", "[0-9a-zA-Z-.]+", r"\.[^/\\]*", "(ab|cd)*x?",
                   "a{2,}", r"\d+\s\w", "auto|[0-9]+"]:
            TokenPattern(ok)


class TestLongestMatch:
    def test_alternation_prefers_longest_not_first(self):
        p = TokenPattern("[0-9a-f]{3}|[0-9a-f]{6}")
        assert p.match_end("aabbcc", 0) == 6
        # re stops at the first branch that matches; that is exactly the
        # behaviour the engine must not have.
        assert re.match("[0-9a-f]{3}|[0-9a-f]{6}", "aabbcc").end() == 3

    def test_anchored_at_position(self):
        p = TokenPattern("[2-9][0-9]{2}")
        assert p.match_end("555-", 0) == 3
        assert p.match_end("x555", 1) == 4
        assert p.match_end("x555", 0) is None

    def test_zero_width_match(self):
        p = TokenPattern("a*")
        assert p.match_end("bbb", 0) == 0
        assert p.match_end("aab", 0) == 2

    def test_no_match_is_none(self):
        assert TokenPattern("[0-9]+").match_end("abc", 0) is None
        assert TokenPattern("x").match_end("", 0) is None


SLUG = "([a-z]+|[0-9]+)([-_.]([a-z]+|[0-9]+))*"
# Line breaks, two- and three-byte UTF-8, an astral character and a lone
# surrogate, beside the characters the patterns name; and a digit, a letter
# and three spaces that are Unicode but not ASCII, so that \\d, \\w and \\s
# read as Unicode would match them.
UNICODE_ONLY = "٣é\x85\xa0\x1c"
WIDE = "ab9. -r_/\\\néc中😀\ud800٣\x85\xa0\x1c"


def _run(rng, alphabet, n):
    return "".join(rng.choice(alphabet) for _ in range(n))


def _slug(rng):
    words = (_run(rng, rng.choice(["abcxyz", "0123456789"]), rng.randint(1, 12))
             for _ in range(120))
    return "".join(rng.choice("-_.") + word for word in words)[1:]


_NO_SEP = WIDE.replace("/", "").replace("\\", "")

# pattern: (maker of a full match of about 1,000 characters, a character
# that cannot extend any match, or None when every character can).
LONG_MATCHES = {
    ".*": (lambda rng: _run(rng, WIDE, 1000), None),
    r"[^/\\]+": (lambda rng: _run(rng, _NO_SEP, 1000), "/"),
    r"\.[^/\\]*": (lambda rng: "." + _run(rng, _NO_SEP, 1000), "\\"),
    SLUG: (_slug, "-"),
    "[^a-cé]+é": (lambda rng: _run(rng, "9. -r_/\n中😀\ud800", 1000) + "é", "a"),
    "(a|b)*a(a|b){3}": (lambda rng: _run(rng, "ab", 996) + "a" + _run(rng, "ab", 3), "c"),
}


class TestAgainstRe:
    PATTERNS = [
        "[2-9][0-9]{2}",
        "[0-9]{4}",
        "[0-9a-zA-Z]+",
        "[0-9a-zA-Z-]+",
        "[0-9a-zA-Z-.]+",
        "[0-9a-zA-Z _.-]+",
        "[^r]*",
        "a*b",
        "(ab)+a?",
        "a{2,4}b{0,2}",
        "ab|a|abc",
        ".[.].",
        r"\.[0-9]*",
        r"\d+(\.\d+)?",
        r"\w+(\s+\w+)*",
        ".*",
        r"[^/\\]+",
        r"\.[^/\\]*",
        SLUG,
        "[^a-cé]+é",
        "(a|b)*a(a|b){3}",
        # Run scanners over most of the BMP, up to U+10FFFF or not, and
        # over astral characters only.
        "[é-\U0010ffff]+",
        "[ -\uffff]*a",
        "[😀-\U0010ffff]*.",
        # Classes of every character and of none.
        "[\x00-\U0010ffff]*",
        "[^\x00-\U0010ffff]?x",
        # re reads an escaped non-ASCII character, digit or letter, as itself.
        "\\٣+",
        "a?\\é",
        "[\\٣]",
        "[\\é\\٣]+",
    ]

    @pytest.mark.parametrize("source", PATTERNS)
    def test_exhaustive_short_strings(self, source):
        p = TokenPattern(source)
        alphabet = "ab9. -r_"
        for n in range(0, 4):
            for chars in itertools.product(alphabet, repeat=n):
                text = "".join(chars)
                assert ends(p, text, 0) == oracle_end(source, text, 0), (source, text)

    @pytest.mark.parametrize("source", PATTERNS)
    def test_random_longer_strings(self, source):
        p = TokenPattern(source)
        rng = random.Random(12)
        alphabet = "abc019.z -/rAB_\\"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
            pos = rng.randrange(0, len(text) + 1)
            assert ends(p, text, pos) == oracle_end(source, text, pos), (source, text, pos)

    @pytest.mark.parametrize("source", PATTERNS)
    def test_random_wide_strings(self, source):
        p = TokenPattern(source)
        rng = random.Random(f"wide-{source}")
        for _ in range(200):
            text = _run(rng, WIDE, rng.randrange(0, 40))
            pos = rng.randrange(0, len(text) + 1)
            assert ends(p, text, pos) == oracle_end(source, text, pos), (source, text, pos)

    @pytest.mark.parametrize("source", sorted(LONG_MATCHES))
    def test_long_runs_from_inside_the_text(self, source):
        """Matches of about 1,000 characters, ending at the end of the text
        or one character before it, run the engine's run scanners."""
        p = TokenPattern(source)
        make, stop = LONG_MATCHES[source]
        rng = random.Random(f"long-{source}")
        for _ in range(3):
            prefix = _run(rng, WIDE, rng.randint(1, 20))
            body = make(rng)
            for tail in ["", stop] if stop else [""]:
                text = prefix + body + tail
                end = ends(p, text, len(prefix))
                assert end == len(prefix + body), (source, text)
                assert end == oracle_end(source, text, len(prefix)), (source, text)

    def test_shorthand_classes(self):
        for source, text in [(r"\d+", "123x"), (r"\w+", "ab_9-"), (r"\s+", " \t\nx")]:
            p = TokenPattern(source)
            assert ends(p, text, 0) == oracle_end(source, text, 0)
            for ch in UNICODE_ONLY:
                assert ends(p, ch, 0) is None, (source, ch)


class TestStateCache:
    """``[ab]*a[ab]{13}`` has 2**14 DFA states, past the table's cap, so
    matching a long a/b text flushes the table."""

    SOURCE = "[ab]*a[ab]{13}"

    @staticmethod
    def expected(text, pos):
        """The last end with an "a" 14 characters before it."""
        ends = [e for e in range(pos + 14, len(text) + 1) if text[e - 14] == "a"]
        return ends[-1] if ends else None

    def check(self, p, seed):
        rng = random.Random(seed)
        text = _run(rng, "ab", 15_000) + "b" * rng.randrange(0, 20)
        for pos in (0, 1, rng.randrange(2, 14_000)):
            assert p.match_end(text, pos) == self.expected(text, pos), (seed, pos)
        assert p.match_end(text[:10], 0) is None

    def test_flushes_keep_longest_match(self):
        p = TokenPattern(self.SOURCE)
        # Construction only reads the source; the first plain_tree() builds
        # the NFA and the first table.
        assert not hasattr(p, "_nfa")
        assert p.plain_tree() is None
        first = p._table
        self.check(p, "flush")
        assert p._table is not first

    def test_threads_share_one_pattern_through_flushes(self):
        p = TokenPattern(self.SOURCE)
        assert p.plain_tree() is None
        first = p._table
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(self.check, p, f"thread-{k}") for k in range(4)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert p._table is not first


def _sources(source, call):
    """The string arguments of each ``call(...)`` in a module's source."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == call
            and node.args and isinstance(node.args[0], ast.Constant)}


_BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


class TestEngineChoice:
    """An unambiguous pattern, where each text fixes one NFA path, is matched
    by one ``re`` call; every other pattern walks the DFA."""

    BUILTIN = sorted(_sources(inspect.getsource(strtype.builtins), "pattern")
                     | _sources(inspect.getsource(strtype.builtins), "TokenPattern"))

    def test_builtin_patterns_are_found(self):
        assert len(self.BUILTIN) >= 9, self.BUILTIN

    @pytest.mark.parametrize("source", BUILTIN)
    def test_builtin_patterns_take_re(self, source):
        assert takes_re(TokenPattern(source))

    def test_bench_slug_pattern_takes_re(self):
        tree = ast.parse(_BENCH_GEN.read_text(encoding="utf-8"))
        slug = next(node.value.value for node in tree.body if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "SLUG_PATTERN")
        assert slug == SLUG
        assert takes_re(TokenPattern(slug))

    # a{0,512} is unambiguous, but its NFA is past the check's budget of
    # _MAX_CHECKED states, so the check answers no.
    @pytest.mark.parametrize("source", ["a*a?", "a{0,512}", "[ab]*a[ab]{13}", "(a*)*b",
                                        "(a?)*b", "(x(a?|b?)y)*z", "x?|y?"])
    def test_ambiguous_patterns_walk_the_dfa(self, source):
        assert not takes_re(TokenPattern(source))

    @pytest.mark.parametrize("source", ["a{0,3}", "[0-9a-f]{1,8}", r"\d{1,3}(\.\d{1,3}){3}"])
    def test_bounded_repeats_of_an_unambiguous_body_take_re(self, source):
        # X{0,3} is wired as (X(X(X)?)?)?, so a text fixes how many copies it takes.
        assert takes_re(TokenPattern(source))

    def test_worked_examples_end_alike_on_both_engines(self):
        for source, cases in [
                (SLUG, [("abc-123_x.9", 11), ("abc-", 3), ("ab--c", 2), ("9a", 1), ("A", None)]),
                ("[0-9a-f]{1,8}", [("", None), ("g", None), ("deadbeef", 8), ("deadbeef0", 8)])]:
            p = TokenPattern(source)
            assert [ends(p, text, 0) for text, _ in cases] == [end for _, end in cases]
            assert takes_re(p)

    def test_construction_chooses_nothing(self):
        p = TokenPattern(SLUG)
        assert p._match is None
        assert p.match_end("ab-1", 0) == 4
        assert p._match is not None

    def test_nested_star_rejects_a_long_run_quickly(self):
        # re alone backtracks exponentially here.
        p = TokenPattern("(a*)*b")
        start = time.perf_counter()
        assert p.match_end("a" * 5000 + "c", 0) is None
        assert time.perf_counter() - start < 1.0

    def test_nullable_options_of_an_alternation(self):
        # re stops in the first option that matches. One nullable option
        # is tried last; with two, the pattern walks the DFA.
        p = TokenPattern("(x?|y)z?")
        assert takes_re(p)
        assert [ends(p, text, 0) for text in ["y", "yz", "x", "z", ""]] == [1, 2, 1, 1, 0]
        assert TokenPattern("x?|y?").match_end("y", 0) == 1


# Points where sre's reading of a class could go wrong: both ends of the
# code space and of the surrogates, the BMP's end, and the characters a
# class body gives meaning to.
_EDGES = [0, 0xD7FF, 0xD800, 0xDFFF, 0xE000, 0xFFFF, 0x10000, _TOP] + list(map(ord, "]^-\\"))


def _span_sets(rng):
    """Every edge point alone and its complement, the empty and the full
    set, and 400 seeded sets of up to four ranges whose ends lie on or
    next to an edge or anywhere."""
    points = [[(c, c)] for c in _EDGES]
    sets = points + [_complement(p) for p in points] + [[], [(0, _TOP)]]
    for _ in range(400):
        ranges = []
        for _ in range(rng.randint(1, 4)):
            low = rng.choice([rng.choice(_EDGES) + rng.choice([-1, 0, 1]),
                              rng.randrange(_TOP + 1)])
            low = min(max(low, 0), _TOP)
            high = low if rng.random() < 0.4 else min(low + rng.choice([1, 2, 300, 70_000]), _TOP)
            ranges.append((low, high))
        spans = _merged(ranges)
        sets.append(_complement(spans) if rng.random() < 0.5 else spans)
    return sets


class TestCharset:
    def test_agrees_with_membership_at_every_edge(self):
        rng = random.Random(31)
        shapes = set()
        for spans in _span_sets(rng):
            source = _charset(spans)
            shapes.add(source[:2])
            compiled = re.compile(source, re.DOTALL)
            probes = {c + d for low, high in spans for c in (low, high) for d in (-1, 0, 1)}
            for c in probes.union(_EDGES) - {-1, _TOP + 1}:
                inside = any(low <= c <= high for low, high in spans)
                assert bool(compiled.fullmatch(chr(c))) == inside, (spans, source, hex(c))
        assert shapes == {".", "[^", "[\\", "\\U"}, shapes

    def test_lone_points_are_written_bare(self):
        # sre runs a bare point in its LITERAL loop and [^x] in its
        # NOT_LITERAL loop, several times faster than a one-range set.
        assert _regex_source(TokenPattern("[^r]*").plain_tree()) == r"[^\U00000072]{0,}"
        assert _regex_source(lit("@").trees[0].plain_tree()) == r"\U00000040"
        assert _charset([(0x40, 0x40)]) == r"\U00000040"
        assert _charset(_complement([(0x72, 0x72)])) == r"[^\U00000072]"
        assert _charset([(0x41, 0x42)]) == r"[\U00000041-\U00000042]"


_ATOMS = ["a", "b", "c", "[ab]", "[^a]", ".", "[a-c]"]
_REPEATS = ["*", "+", "?", "{2}", "{1,2}", "{0,3}", "{2,}"]


def _random_pattern(rng, depth=2):
    """A pattern over ``_ATOMS`` with repeats, groups, ``|`` and empty options."""
    options = []
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        parts = []
        for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
            part = (f"({_random_pattern(rng, depth - 1)})" if depth and rng.random() < 0.3
                    else rng.choice(_ATOMS))
            if rng.random() < 0.4:
                part += rng.choice(_REPEATS)
            parts.append(part)
        options.append("".join(parts))
    return "|".join(options)


class TestRandomPatterns:
    # Every string over abcd up to this length: 1,365 of them.
    TEXTS = ["".join(chars) for n in range(6) for chars in itertools.product("abcd", repeat=n)]

    def test_re_path_agrees_with_the_dfa(self):
        rng = random.Random(13)
        sources = {_random_pattern(rng) for _ in range(2000)}
        eligible = [p for p in map(TokenPattern, sorted(sources)) if takes_re(p)]
        for p in eligible:
            for text in self.TEXTS:
                for pos in (0, 1)[:len(text) + 1]:
                    assert p.match_end(text, pos) == p._dfa_end(text, pos), (p, text, pos)
        assert len(eligible) >= 200, len(eligible)


class TestFirstCall:
    def test_threads_share_the_deciding_call(self):
        p = TokenPattern(SLUG)
        rng = random.Random("decide")
        texts = [_slug(rng)[:300] + tail for tail in ["", "-", "A", "--"]]
        barrier = threading.Barrier(4)

        def run(pos):
            barrier.wait(timeout=60)
            return [p.match_end(text, pos) for text in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, k % 2) for k in range(4)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, got in enumerate(results):
            assert got == [oracle_end(SLUG, text, k % 2) for text in texts], k
        assert p._match is not False


def _sample(node, rng):
    """A random string that the pattern tree ``node`` matches whole.

    A class draws from its spans, mostly their ASCII part; an unbounded
    repeat takes at most 3 copies beyond its minimum. Raises IndexError
    when ``node`` matches nothing.
    """
    if isinstance(node, _Cls):
        low, high = rng.choice(node.spans)
        if rng.random() < 0.8:
            high = min(high, max(low, 0x7F))
        return chr(rng.randint(low, high))
    if isinstance(node, _Seq):
        return "".join(_sample(part, rng) for part in node.parts)
    if isinstance(node, _Alt):
        return _sample(rng.choice(node.options), rng)
    high = node.low + 3 if node.high is None else node.high
    try:
        return "".join(_sample(node.node, rng) for _ in range(rng.randint(node.low, high)))
    except IndexError:
        if node.low:
            raise
        return ""


def _rep_depth(node):
    """How deeply repeats nest in the pattern tree ``node``."""
    if isinstance(node, _Cls):
        return 0
    if isinstance(node, _Rep):
        return 1 + _rep_depth(node.node)
    return max(map(_rep_depth, node.parts if isinstance(node, _Seq) else node.options), default=0)


class TestSampledStrings:
    """Strings drawn from each pattern's tree match it whole on both engines,
    and their one-character edits agree with an oracle: ``re`` for one level
    of groups, where the tree oracle is checked against it, and the tree
    oracle alone for repeats nested two or three deep, where ``re``
    backtracks exponentially."""

    SOURCES = TestAgainstRe.PATTERNS + sorted(
        {_random_pattern(random.Random(f"sample-{k}"), depth=1) for k in range(360)})
    NESTED = sorted(source for source in {
        _random_pattern(random.Random(f"nested-{k}"), depth=2) for k in range(1200)}
        if _rep_depth(TokenPattern(source)._tree) >= 2)

    @staticmethod
    def check(p, rng, oracle, full_match):
        for _ in range(4):
            text = _sample(p._tree, rng)
            assert p.match_end(text, 0) == p._dfa_end(text, 0) == len(text), (p, text)
            assert full_match(text), (p, text)
            for _ in range(3):
                i = rng.randrange(len(text) + 1)
                insert = rng.choice(["", rng.choice(WIDE)])
                edited = text[:i] + insert + text[i + rng.randint(0, 1):]
                assert ends(p, edited, 0) == oracle(edited), (p, edited)

    def test_samples_match_whole_and_edits_agree(self):
        rng = random.Random(14)
        for source in self.SOURCES:
            p = TokenPattern(source)
            compiled = re.compile(source, re.DOTALL | re.ASCII)

            def oracle(text):
                end = oracle_end(source, text, 0)
                assert tree_oracle_end(p, text, 0) == end, (source, text)
                return end
            self.check(p, rng, oracle, compiled.fullmatch)

    def test_nested_repeats_agree_with_the_tree_oracle(self):
        assert len(self.NESTED) >= 100, len(self.NESTED)
        rng = random.Random(15)
        for source in self.NESTED:
            p = TokenPattern(source)
            self.check(p, rng, lambda text: tree_oracle_end(p, text, 0),
                       lambda text: len(text) in reachable_ends(p._tree, text, {0}))
