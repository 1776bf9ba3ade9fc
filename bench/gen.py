"""Seeded inputs for the benchmark's workloads, each with its known answer.

Nothing here imports strtype. Every expected answer follows from how the
input was built: the tree an expression was rendered from, the exact
digits of a length, the domain an email was given. The checks therefore
compare the program with answers it did not produce.

Mixes are fixed by quota and only the contents come from the seed. Two
seeds give the same share of each type, of rejected inputs and of each
known-defect tail, which keeps the run-to-run spread down.
"""

from __future__ import annotations

import random
import re
import string
from fractions import Fraction
from typing import NamedTuple

REJECTED, NON_ASCII, LONG, DEEP = 1, 2, 4, 8
FLAG_NAMES = {REJECTED: "rejected", NON_ASCII: "non_ascii",
              LONG: "longer_than_200", DEEP: "deeper_than_150"}

# Known defects the inputs reach on purpose. Each tail stays under 1% of
# a workload's items, so the p99 latency sits in ordinary inputs.
DEFECTS = {
    "expr_deep_nesting":
        "Expr nested deeper than about 160 levels raises RecursionError",
    "expr_flat_sum":
        "cast and hash of a flat sum of 1,000+ terms raise RecursionError",
    "cssunit_float_digits":
        "CssUnit keeps a float, so digits beyond its precision change",
    "cli_line_separator":
        "the CLI also splits lines on U+2028, making extra records",
    "cli_undecodable_file":
        "a --file with invalid UTF-8 exits 1 with a traceback, not 2",
}

ALNUM = string.ascii_letters + string.digits
HEX = "0123456789abcdefABCDEF"
SANITISED = ALNUM + " _.-"
SLUG_PATTERN = "([a-z]+|[0-9]+)([-_.]([a-z]+|[0-9]+))*"
# Non-ASCII letters that are not line boundaries, for CLI input files.
SAFE_NON_ASCII = "éüßñøåçΩжन中文한語€"
CM_PER_UNIT = {"px": Fraction("2.54") / 96, "pt": Fraction("2.54") / 72,
               "pc": Fraction("2.54") / 6, "cm": Fraction(1)}


class Item(NamedTuple):
    """One unit of work and the answer the program must give for it."""
    op: str
    args: tuple
    expect: tuple
    flags: int
    defect: str | None = None


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def flags_of(text: str, rejected: bool, depth: int = 0) -> int:
    out = REJECTED if rejected else 0
    if not text.isascii():
        out |= NON_ASCII
    if len(text) > 200:
        out |= LONG
    if depth > 150:
        out |= DEEP
    return out


def quota(rng: random.Random, n: int, shares: dict) -> list:
    """``n`` labels holding each label's share exactly, in seeded order."""
    labels = []
    for label, share in shares.items():
        labels += [label] * int(n * share)
    labels += [next(iter(shares))] * (n - len(labels))
    rng.shuffle(labels)
    return labels


def _stratified_lengths(rng, n, low, high):
    """Log-uniform lengths, one per stratum, so every seed gets the same spread."""
    out = [round(low * (high / low) ** ((i + rng.random()) / n)) for i in range(n)]
    rng.shuffle(out)
    return out


def _run(rng, alphabet, low, high):
    return "".join(rng.choices(alphabet, k=rng.randint(low, high)))


def _wide_char(rng):
    while True:
        cp = rng.randrange(0xA0, 0x30000)
        if not 0xD800 <= cp <= 0xDFFF:
            return chr(cp)


def _text(rng, alphabet, length, wide):
    """``length`` characters; with ``wide``, a tenth are non-ASCII code points."""
    chars = rng.choices(alphabet, k=length)
    if wide:
        for i in rng.sample(range(length), length // 10):
            chars[i] = _wide_char(rng)
    return "".join(chars)


def _late(rng, length):
    return rng.randrange(length * 9 // 10, length)


def _split_file(segment):
    """File name and extension of a last path segment, as the README states
    them: the extension follows the last dot when both halves are non-empty."""
    i = segment.rfind(".")
    if 0 < i < len(segment) - 1:
        return segment[:i], segment[i + 1:]
    return segment, None


def path_answer(segments, sep, absolute):
    """Structure fields of a well-formed path built from ``segments``."""
    file_name, ext = _split_file(segments[-1])
    return {"absolute": absolute, "dirs": list(segments[:-1]),
            "file_name": file_name, "ext": ext,
            "separator": sep if absolute or len(segments) > 1 else "/"}


def unit_canonical(digits: str, unit: str) -> str:
    """Canonical CssUnit text from the exact digits it was written with."""
    if unit == "auto":
        return "auto"
    whole, _, frac = digits.partition(".")
    whole = whole.lstrip("0") or "0"
    frac = frac.rstrip("0")
    return (f"{whole}.{frac}" if frac else whole) + unit


# --------------------------------------------------------------- long_tokens

def _long_sanitised(rng, length, reject, wide):
    chars = rng.choices(SANITISED, k=length)
    if reject:
        chars[_late(rng, length)] = rng.choice("!@#/+é")
    raw = "".join(chars)
    return raw, ("Opaque", (raw,))


_NO_R = ALNUM.replace("r", "") + " ."


def _long_inner_r(rng, length, reject, wide):
    if reject:
        return _text(rng, _NO_R, length, wide), None
    k = rng.randrange(length)
    left = _text(rng, _NO_R, k, wide)
    right = _text(rng, ALNUM + " .", length - k - 1, wide)
    return f"{left}r{right}", ("InnerR", (left, right))


def _long_email(rng, length, reject, wide):
    left = _run(rng, ALNUM + "-", 3, 10)
    right = rng.choice(["com", "co.uk", "org", "io", "example.net"])
    name = list(rng.choices(ALNUM, k=max(1, length - len(left) - len(right) - 2)))
    if reject:
        name[_late(rng, len(name))] = rng.choice("._+!")
    name = "".join(name)
    return f"{name}@{left}.{right}", ("Email", (name, left, right))


def _long_path(rng, length, reject, wide):
    sep = rng.choice("/\\")
    absolute = rng.random() < 0.5
    count = rng.randint(2, 6)
    body = max(count, length - count - 4)
    cuts = sorted(rng.sample(range(1, body), count - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [body])]
    segments = [_text(rng, ALNUM + " ._-", size, wide) for size in sizes]
    if rng.random() < 0.5:
        segments[-1] += "." + _run(rng, string.ascii_lowercase, 1, 3)
    raw = (sep if absolute else "") + sep.join(segments)
    if reject:
        other = "\\" if sep == "/" else "/"
        raw += rng.choice([sep, other + "x", sep + sep + "x"])
        return raw, None
    answer = path_answer(segments, sep, absolute)
    return raw, ("FilePath", (answer["absolute"], tuple(answer["dirs"]),
                              answer["file_name"], answer["ext"],
                              answer["separator"]))


def _slug(rng, length):
    parts = []
    size = 0
    while size < length:
        run = _run(rng, rng.choice([string.ascii_lowercase, string.digits]), 1, 12)
        if parts:
            run = rng.choice("-_.") + run
        parts.append(run)
        size += len(run)
    return "".join(parts)


def _long_slug(rng, length, reject, wide):
    raw = _slug(rng, length)
    if reject:
        i = _late(rng, len(raw))
        raw = raw[:i] + "A" + raw[i + 1:]
    return raw, ("Opaque", (raw,))


_LONG_MAKERS = {
    "Sanitised": _long_sanitised, "UserName": _long_sanitised,
    "InnerR": _long_inner_r, "Email": _long_email,
    "FilePath": _long_path, "Slug": _long_slug,
}
_REGULAR = {"Sanitised": "[0-9a-zA-Z _.-]+", "UserName": "[0-9a-zA-Z _.-]+",
            "Slug": SLUG_PATTERN}


_LONG_SHARES = {"Sanitised": 0.2, "UserName": 0.1, "InnerR": 0.2,
                "Email": 0.2, "FilePath": 0.2, "Slug": 0.1}


def long_tokens(seed: int, n: int = 800) -> list[Item]:
    """Lengths, rejections and non-ASCII shares are spread evenly within
    each type, so every seed has the same costly tail."""
    rng = make_rng("long_tokens", seed)
    items = []
    for kind, share in _LONG_SHARES.items():
        count = int(n * share)
        for length, reject, wide in zip(_stratified_lengths(rng, count, 200, 4000),
                                        quota(rng, count, {False: 0.8, True: 0.2}),
                                        quota(rng, count, {False: 0.6, True: 0.4})):
            raw, structure = _LONG_MAKERS[kind](rng, length, reject, wide)
            if kind in _REGULAR:
                # re agrees with longest-match on whole-string acceptance.
                assert (re.fullmatch(_REGULAR[kind], raw) is None) == reject, raw
            expect = ("err",) if reject else ("ok", structure)
            items.append(Item("parse", (kind, raw), expect, flags_of(raw, reject)))
    rng.shuffle(items)
    return items


# -------------------------------------------------------------- expr_nesting

def _tree(rng, depth):
    """An expression tree as nested tuples: ("C", n), ("A", l, r), ("M", l, r)."""
    if depth <= 1 or rng.random() < 0.35:
        return ("C", rng.randrange(1000))
    return (rng.choice("AM"), _tree(rng, depth - 1), _tree(rng, depth - 1))


def _preorder(tree):
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] == "C":
            out.append(node[1])
        else:
            out.append(node[0])
            stack.append(node[2])
            stack.append(node[1])
    return tuple(out)


_LEVEL = {"A": 1, "M": 2, "C": 3}


def _canonical(tree, floor=0):
    """Fewest parentheses: both operators associate left, "*" binds tighter."""
    if tree[0] == "C":
        return str(tree[1])
    level = _LEVEL[tree[0]]
    op = " + " if tree[0] == "A" else " * "
    text = _canonical(tree[1], level) + op + _canonical(tree[2], level + 1)
    return f"({text})" if level < floor else text


def _loose(rng, tree, floor=0):
    """Render with random spacing and harmless extra parentheses."""
    def sp():
        return rng.choice(["", "", " ", "  ", "\t"])
    if tree[0] == "C":
        text = str(tree[1])
    else:
        level = _LEVEL[tree[0]]
        op = "+" if tree[0] == "A" else "*"
        text = (_loose(rng, tree[1], level) + sp() + op + sp()
                + _loose(rng, tree[2], level + 1))
    if _LEVEL[tree[0]] < floor or rng.random() < 0.2:
        text = "(" + sp() + text + sp() + ")"
    return text


def _tree_depth(tree):
    return 1 if tree[0] == "C" else 1 + max(_tree_depth(tree[1]), _tree_depth(tree[2]))


def _paren_depth(text):
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


def _expr_item(rng, max_depth, reject):
    tree = _tree(rng, max_depth)
    text = " " * rng.randrange(3) + _loose(rng, tree)
    if reject:
        how = rng.randrange(3)
        if how == 0:
            text += " +"
        elif how == 1 and text.endswith(")"):
            text = text[:-1]
        else:
            i = rng.randrange(len(text) * 2 // 3, len(text) + 1)
            text = text[:i] + "x" + text[i:]
        return Item("expr", (text,), ("err",),
                    flags_of(text, True, _paren_depth(text)))
    order = _preorder(tree)
    depth = max(_tree_depth(tree), _paren_depth(text))
    return Item("expr", (text,), ("ok", order, _canonical(tree), len(order)),
                flags_of(text, False, depth))


def _deep_item(rng):
    depth = rng.randint(200, 400)
    n = rng.randrange(1000)
    text = "(" * depth + f" {n} " + ")" * depth
    return Item("expr", (text,), ("ok", (n,), str(n), 1),
                flags_of(text, False, depth), "expr_deep_nesting")


def _flat_sum_item(rng):
    terms = [rng.randrange(1000) for _ in range(rng.randint(1000, 2000))]
    text = "+".join(f"{t}{rng.choice(['', ' '])}" for t in terms)
    order = ("A",) * (len(terms) - 1) + tuple(terms)
    canonical = " + ".join(map(str, terms))
    return Item("expr", (text,), ("ok", order, canonical, len(order)),
                flags_of(text, False, len(terms)), "expr_flat_sum")


def _ab_item(rng, reject):
    n = rng.randint(0, 500)
    if not reject:
        text = "a" * n + "b" * n
        return Item("ab", (text,), ("ok", n, text), flags_of(text, False))
    if rng.random() < 0.5:
        text = "a" * n + "b" * max(0, n + rng.choice([-1, 1]) * rng.randint(1, 3))
        if len(text) == 2 * n:
            text += "b"
    else:
        text = "a" * n + "b" * n + "ba"
    assert text != "a" * (len(text) // 2) + "b" * (len(text) // 2)
    return Item("ab", (text,), ("err",), flags_of(text, True))


def expr_nesting(seed: int, n: int = 2000) -> list[Item]:
    rng = make_rng("expr_nesting", seed)
    tails = max(1, n // 500)
    kinds = quota(rng, n - 2 * tails,
                  {"expr": 0.76, "expr_reject": 0.09, "ab": 0.12, "ab_reject": 0.03})
    items = []
    for i, kind in enumerate(kinds):
        if kind.startswith("expr"):
            items.append(_expr_item(rng, 1 + i % 8, kind == "expr_reject"))
        else:
            items.append(_ab_item(rng, kind == "ab_reject"))
    items += [_deep_item(rng) for _ in range(tails)]
    items += [_flat_sum_item(rng) for _ in range(tails)]
    rng.shuffle(items)
    return items


# ------------------------------------------------------- values and answers
#
# An answer is what the program must report for a well-formed value: its
# canonical form and its fields as the CLI's extract command writes them.

def _mixed_case(rng, text):
    return "".join(c.upper() if rng.random() < 0.3 else c for c in text)


def _colour_spellings(rng):
    """Two spellings of one colour, and its answer."""
    if rng.random() < 0.5:
        short = "".join(rng.choices("0123456789abcdef", k=3))
        rgb = [int(c * 2, 16) for c in short]
        spellings = ["#" + _mixed_case(rng, short),
                     "#" + _mixed_case(rng, "".join(c * 2 for c in short))]
    else:
        rgb = [rng.randrange(256) for _ in range(3)]
        six = "".join(f"{c:02x}" for c in rgb)
        spellings = ["#" + _mixed_case(rng, six), "#" + _mixed_case(rng, six)]
    return spellings, _colour_answer(rgb)


def _colour_answer(rgb):
    return {"normalized": "#{:02x}{:02x}{:02x}".format(*rgb),
            "fields": dict(zip(["red", "green", "blue"], rgb))}


def _unit_answer(digits, unit):
    exact = None if digits is None else Fraction(digits)
    return {"normalized": unit_canonical(digits, unit), "exact": exact,
            "fields": {"value": None if digits is None else float(digits),
                       "unit": unit}}


def _unit_spellings(rng, units):
    """Two spellings of one length (leading and trailing zeros), and its answer."""
    unit = rng.choice(units)
    if unit == "auto":
        return ["auto", "auto"], _unit_answer(None, "auto")
    digits = str(rng.randrange(100000))
    if rng.random() < 0.5:
        digits += "." + str(rng.randrange(10000))
    other = "0" * rng.randint(0, 2) + digits + ("0" if "." in digits else "")
    return [digits + unit, other + unit], _unit_answer(digits, unit)


def _float_tail_unit(rng):
    """A length with more significant digits than a float holds."""
    digits = rng.choice(["9" * 21, "1." + "0" * 18 + "1",
                         str(rng.randrange(10 ** 20, 10 ** 21)) + "1"])
    unit = rng.choice(["px", "cm"])
    return digits + unit, _unit_answer(digits, unit)


def _email(rng, gmail):
    left = "gmail" if gmail else rng.choice(["outlook", "example", "mail-box", "yahoo"])
    parts = [_run(rng, ALNUM, 1, 10), left, rng.choice(["com", "co.uk", "org"])]
    raw = "{}@{}.{}".format(*parts)
    return raw, {"normalized": raw,
                 "fields": dict(zip(["name", "domain_left", "domain_right"], parts))}


def _path(rng, kind):
    """A short path of one kind: home (a dot file under /home), unix, win or
    single (one relative segment, which carries no separator)."""
    if kind == "home":
        sep, absolute = "/", True
        segments = ["home", "." + _run(rng, ALNUM, 1, 8) + rng.choice(["", ".bak"])]
    elif kind == "single":
        sep, absolute = "/", False
        segments = [_run(rng, ALNUM + "_-", 1, 10) + rng.choice(["", ".txt"])]
    else:
        sep, absolute = ("/" if kind == "unix" else "\\"), rng.random() < 0.5
        segments = [_run(rng, ALNUM + "._-", 1, 8) for _ in range(rng.randint(2, 4))]
    raw = (sep if absolute else "") + sep.join(segments)
    return raw, {"normalized": raw, "fields": path_answer(segments, sep, absolute),
                 "has_sep": absolute or len(segments) > 1, "kind": kind}


def _narrowed(target, answer):
    """The record narrowing a parsed value to ``target`` must give, or None
    when the narrowing must fail."""
    fields = answer["fields"]
    if target == "Gmail":
        ok, checks = fields["domain_left"] == "gmail", 1
    elif target == "PxOrAuto":
        ok, checks = fields["unit"] in ("px", "auto"), 1
    elif target == "HomeDotFile":
        ok = (answer["has_sep"] and fields["separator"] == "/"
              and fields["dirs"] == ["home"] and fields["file_name"].startswith("."))
        checks = 3
    else:
        sep = "\\" if target == "WindowsPath" else "/"
        ok = not answer["has_sep"] or fields["separator"] == sep
        checks = 1 if answer["has_sep"] else 0
    return {"normalized": answer["normalized"], "checks": checks} if ok else None


# ----------------------------------------------------------------- typed_ops

_FLOAT_TAILS = 2  # the first CssUnit pool entries have too many digits


def _pools(rng):
    """Raw values parsed in set-up, each with its answer."""
    pools = {name: [] for name in
             ["CssColour", "CssUnit", "Email", "Gmail", "FilePath", "HomeDotFile"]}
    for _ in range(100):
        spellings, answer = _colour_spellings(rng)
        pools["CssColour"] += [(s, answer) for s in spellings]
    pools["CssUnit"] += [_float_tail_unit(rng) for _ in range(_FLOAT_TAILS)]
    for _ in range(150):
        spellings, answer = _unit_spellings(rng, ["px", "pt", "pc", "cm", "auto"])
        pools["CssUnit"] += [(s, answer) for s in spellings]
    for i in range(150):
        pools["Email"] += [_email(rng, i % 2 == 0)] * 2
        pools["Gmail"].append(_email(rng, True))
    for kind in ["home", "unix", "win", "single"] * 60:
        pools["FilePath"].append(_path(rng, kind))
    pools["HomeDotFile"] = [p for p in pools["FilePath"] if p[1]["kind"] == "home"]
    return pools


def _pick(rng, pool, test=lambda answer: True):
    start = _FLOAT_TAILS if pool and "exact" in pool[0][1] else 0
    while True:
        i = rng.randrange(start, len(pool))
        if test(pool[i][1]):
            return i


def _narrow_item(rng, ok, pools):
    source, target = rng.choice([("Email", "Gmail"), ("CssUnit", "PxOrAuto"),
                                 ("FilePath", "HomeDotFile"), ("FilePath", "WindowsPath")])
    i = _pick(rng, pools[source], lambda a: (_narrowed(target, a) is not None) == ok)
    return Item("narrow", (source, i, target), ("ok", target) if ok else ("err",),
                flags_of(pools[source][i][0], not ok))


def _widen_item(rng, pools):
    source, target = rng.choice([("Gmail", "Email"), ("HomeDotFile", "FilePath"),
                                 ("HomeDotFile", "UnixPath"), ("Gmail", "string"),
                                 ("CssColour", "string"), ("CssUnit", "string")])
    i = _pick(rng, pools[source])
    raw, answer = pools[source][i]
    expect = ("str", answer["normalized"]) if target == "string" else ("ok", target)
    return Item("widen", (source, i, target), expect, flags_of(raw, False))


def _float_tail_item(rng, pools):
    i = rng.randrange(_FLOAT_TAILS)
    raw, answer = pools["CssUnit"][i]
    return Item("widen", ("CssUnit", i, "string"), ("str", answer["normalized"]),
                flags_of(raw, False), "cssunit_float_digits")


def _structure_key(answer):
    if "exact" in answer:
        return answer["exact"], answer["fields"]["unit"]
    return tuple(answer["fields"].items())


def _eq_item(rng, pools):
    source = rng.choice(["CssColour", "CssUnit", "Email"])
    pool = pools[source]
    i = _pick(rng, pool)
    j = i ^ 1 if rng.random() < 0.5 else _pick(rng, pool)
    mode = rng.choice(["raw_eq", "weak_eq", "strict_eq"])
    (ra, a), (rb, b) = pool[i], pool[j]
    if mode == "raw_eq":
        answer = ra == rb
    elif mode == "weak_eq":
        answer = a["normalized"] == b["normalized"]
    else:
        answer = _structure_key(a) == _structure_key(b)
    return Item("eq", (source, i, j, mode), ("eq", answer), flags_of(ra + rb, False))


def _blend_item(rng, pools):
    pool = pools["CssColour"]
    i, j = _pick(rng, pool), _pick(rng, pool)
    (ra, a), (rb, b) = pool[i], pool[j]
    mixed = [min(255, a["fields"][c] + b["fields"][c]) for c in ["red", "green", "blue"]]
    return Item("blend", (i, j),
                ("ok", "CssColour", _colour_answer(mixed)["normalized"]),
                flags_of(ra + rb, False))


def _concat_item(rng, pools):
    left = rng.choice(["Email", "Gmail"])
    i, j = _pick(rng, pools[left]), _pick(rng, pools["Email"])
    (ra, a), (rb, b) = pools[left][i], pools["Email"][j]
    fa = a["fields"]
    joined = f"{fa['name']}{b['fields']['name']}@{fa['domain_left']}.{fa['domain_right']}"
    return Item("concat", (left, i, j), ("ok", left, joined), flags_of(ra + rb, False))


def _add_units_item(rng, pools):
    pool = pools["CssUnit"]
    i, j = _pick(rng, pool), _pick(rng, pool)
    (ra, a), (rb, b) = pool[i], pool[j]
    ua, ub = a["fields"]["unit"], b["fields"]["unit"]
    if "auto" in (ua, ub):
        return Item("add_units", (i, j), ("err", "incompatible_types"),
                    flags_of(ra + rb, True))
    exact = a["exact"] + b["exact"] * CM_PER_UNIT[ub] / CM_PER_UNIT[ua]
    return Item("add_units", (i, j), ("ok", ua, exact), flags_of(ra + rb, False))


def _append_item(rng, pools):
    source = rng.choice(["Email", "Gmail"])
    i = _pick(rng, pools[source])
    raw, answer = pools[source][i]
    f = answer["fields"]
    if rng.random() < 0.8:
        suffix = _run(rng, ALNUM, 1, 6)
        expect = ("ok", source, f"{f['name']}{suffix}@{f['domain_left']}.{f['domain_right']}")
    else:
        suffix = _run(rng, ALNUM, 0, 3) + rng.choice(["+x", ".", "!", " "])
        expect = ("err", "closure_violation")
    return Item("append", (source, i, suffix), expect,
                flags_of(raw + suffix, expect[0] == "err"))


_TYPED_MAKERS = {
    "narrow_ok": lambda rng, pools: _narrow_item(rng, True, pools),
    "narrow_fail": lambda rng, pools: _narrow_item(rng, False, pools),
    "widen": _widen_item, "eq": _eq_item, "blend": _blend_item,
    "concat": _concat_item, "add_units": _add_units_item, "append": _append_item,
}


def typed_ops(seed: int, n: int = 4000) -> tuple[dict, list[Item]]:
    """Raw operand pools, parsed in set-up, and the operations to time."""
    rng = make_rng("typed_ops", seed)
    pools = _pools(rng)
    tails = max(1, n // 400)
    kinds = quota(rng, n - tails, {"narrow_ok": 0.28, "narrow_fail": 0.12, "widen": 0.1,
                                   "eq": 0.2, "blend": 0.08, "concat": 0.07,
                                   "add_units": 0.08, "append": 0.07})
    items = [_TYPED_MAKERS[kind](rng, pools) for kind in kinds]
    items += [_float_tail_item(rng, pools) for _ in range(tails)]
    rng.shuffle(items)
    return {name: [raw for raw, _ in pool] for name, pool in pools.items()}, items


# ----------------------------------------------------------------- cli_batch

class Line(NamedTuple):
    """One input line of a CLI batch and the record fields the CLI must write."""
    text: str
    expect: dict | None  # None: the line must be rejected
    flags: int
    defect: str | None = None


class Batch(NamedTuple):
    argv: tuple                     # the CLI arguments before --file
    lines: list                     # of Line
    raw_bytes: bytes | None = None  # the file, when it is not plain UTF-8 lines


def _bad_colour(rng):
    return rng.choice(["#" + _run(rng, HEX, 4, 5), "#12g4aa",
                       _run(rng, HEX, 6, 6), "#" + _run(rng, HEX, 7, 8)])


def _bad_unit(rng):
    n = str(rng.randrange(1000))
    return rng.choice([n + rng.choice(["em", "PX", " px", ""]), "." + n + "px",
                       n + ".px", "autopx", "px" + n])


def _bad_email(rng):
    name = _run(rng, ALNUM, 1, 8)
    return rng.choice([f"{name}.example.com", f"{name}@@x.com", f"{name}@x",
                       f"{name}_x@y.com", f"{name}@y."])


def _cli_path(kinds):
    def make(rng, ok):
        raw, answer = _path(rng, rng.choice(kinds))
        if ok:
            return raw, answer
        sep = answer["fields"]["separator"]
        mutations = [sep, sep + sep + "y"]
        if answer["has_sep"]:
            mutations.append(("\\" if sep == "/" else "/") + "x")
        return raw + rng.choice(mutations), None
    return make


def _cli_gmail(rng, ok):
    if ok:
        return _email(rng, True)
    return (_email(rng, False)[0] if rng.random() < 0.5 else _bad_email(rng)), None


def _cli_phone(rng, ok):
    area = rng.choice("23456789") + f"{rng.randrange(100):02d}"
    office = rng.choice("23456789") + f"{rng.randrange(100):02d}"
    uniq = f"{rng.randrange(10000):04d}"
    seps = [rng.choice(["", " ", ".", "-", "/"]) for _ in range(2)]
    if ok:
        return area + seps[0] + office + seps[1] + uniq, {
            "normalized": f"{area}-{office}-{uniq}"}
    bad = rng.randrange(3)
    if bad == 0:
        area = rng.choice("01") + area[1:]
    elif bad == 1:
        uniq = uniq[:3]
    else:
        seps[0] = "--"
    return area + seps[0] + office + seps[1] + uniq, None


def _cli_ab(rng, ok):
    n = rng.randint(3, 20)
    if ok:
        raw = "a" * n + "b" * n
        return raw, {"normalized": raw}
    return rng.choice(["a" * n + "b" * (n - 1), "a" * n + "b" * (n + 2),
                       "ab" * n, "b" * n + "a" * n]), None


def _cli_inner_r(rng, ok):
    left = _run(rng, _NO_R + SAFE_NON_ASCII, 0, 15)
    right = _run(rng, ALNUM + " ." + SAFE_NON_ASCII, 0, 15)
    if not ok:
        return left + right.replace("r", "") + "x", None
    raw = f"{left}r{right}"
    return raw, {"normalized": raw, "fields": {"left": left, "right": right}}


def _cli_expr(rng, ok):
    item = _expr_item(rng, rng.randint(1, 3), not ok)
    return item.args[0], ({"normalized": item.expect[2]} if ok else None)


def _cli_sanitised(rng, ok):
    raw = _run(rng, SANITISED, 5, 30)
    if ok:
        return raw, {"normalized": raw}
    i = rng.randrange(len(raw))
    return raw[:i] + rng.choice("!@#/+é") + raw[i + 1:], None


def _cli_slug(rng, ok):
    raw = _slug(rng, rng.randint(5, 30))
    if ok:
        return raw, {"normalized": raw}
    i = rng.randrange(len(raw))
    return raw[:i] + rng.choice(["A", "--", "/"]) + raw[i + 1:], None


def _cli_colour(rng, ok):
    if not ok:
        return _bad_colour(rng), None
    spellings, answer = _colour_spellings(rng)
    return spellings[0], answer


def _cli_unit(units):
    def make(rng, ok):
        if not ok:
            if "pt" not in units and rng.random() < 0.5:
                return f"{rng.randrange(100)}pt", None
            return _bad_unit(rng), None
        spellings, answer = _unit_spellings(rng, units)
        return spellings[1], answer
    return make


def _cli_email(rng, ok):
    return _email(rng, rng.random() < 0.4) if ok else (_bad_email(rng), None)


_CLI_MAKERS = {
    "CssColour": _cli_colour,
    "CssUnit": _cli_unit(["px", "pt", "pc", "cm", "auto"]),
    "PxOrAuto": _cli_unit(["px", "auto"]),
    "Email": _cli_email, "Gmail": _cli_gmail,
    "FilePath": _cli_path(["home", "unix", "win", "single"]),
    "UnixPath": _cli_path(["home", "unix", "single"]),
    "WindowsPath": _cli_path(["win", "single"]),
    "HomeDotFile": _cli_path(["home"]),
    "USPhone": _cli_phone, "EqualAandB": _cli_ab, "InnerR": _cli_inner_r,
    "Expr": _cli_expr, "Sanitised": _cli_sanitised, "UserName": _cli_sanitised,
    "Slug": _cli_slug,
}

# Every builtin type and the definition type, under the four commands.
CLI_BATCHES = [
    ("validate", "CssColour"), ("extract", "CssUnit"), ("normalize", "PxOrAuto"),
    ("narrow", "Email", "Gmail"), ("validate", "Gmail"),
    ("narrow", "FilePath", "HomeDotFile"), ("normalize", "UnixPath"),
    ("validate", "WindowsPath"), ("extract", "HomeDotFile"), ("normalize", "USPhone"),
    ("validate", "EqualAandB"), ("extract", "InnerR"), ("normalize", "Expr"),
    ("validate", "Sanitised"), ("normalize", "UserName"), ("normalize", "Slug"),
    ("narrow", "CssUnit", "PxOrAuto"), ("narrow", "FilePath", "WindowsPath"),
    ("extract", "Email"),
]


def _record(spec, answer):
    """The fields of the record a command writes for a parsed line."""
    if answer is None:
        return None
    if spec[0] == "narrow":
        return _narrowed(spec[2], answer)
    if spec[0] == "extract":
        return {"normalized": answer["normalized"], "fields": answer["fields"]}
    return {"normalized": answer["normalized"]}


def _line_separator_line(rng, spec):
    """A well-formed line with U+2028 inside a field that takes any character."""
    if spec[1] == "InnerR":
        raw, answer = _cli_inner_r(rng, True)
        left, right = answer["fields"]["left"], answer["fields"]["right"] + "\u2028x"
        raw = f"{left}r{right}"
        answer = {"normalized": raw, "fields": {"left": left, "right": right}}
    else:
        sep, absolute = "/", True
        segments = ["home", "." + _run(rng, ALNUM, 1, 6) + "\u2028x"]
        raw = "/" + "/".join(segments)
        answer = {"normalized": raw, "fields": path_answer(segments, sep, absolute),
                  "has_sep": True}
    expect = _record(spec, answer)
    return Line(raw, expect, flags_of(raw, expect is None), "cli_line_separator")


def _batch(rng, spec, n):
    make = _CLI_MAKERS[spec[1]]
    lines = []
    for ok in quota(rng, n, {True: 0.8, False: 0.2}):
        raw, answer = make(rng, ok)
        expect = _record(spec, answer)
        lines.append(Line(raw, expect, flags_of(raw, expect is None)))
    if spec == ("extract", "CssUnit"):
        for i in rng.sample(range(n), 2):
            raw, answer = _float_tail_unit(rng)
            lines[i] = Line(raw, _record(spec, answer), flags_of(raw, False),
                            "cssunit_float_digits")
    if spec in (("extract", "InnerR"), ("narrow", "FilePath", "HomeDotFile")):
        for i in rng.sample(range(n), 2):
            lines[i] = _line_separator_line(rng, spec)
    if spec[0] == "narrow":
        return Batch(("narrow", "--from", spec[1], "--to", spec[2]), lines)
    return Batch((spec[0], "--type", spec[1]), lines)


def _undecodable_batch(rng):
    good = [_cli_sanitised(rng, True)[0] for _ in range(4)]
    data = ("\n".join(good[:2]) + "\n").encode() + b"\xff\xfe bad\n" \
        + ("\n".join(good[2:]) + "\n").encode()
    texts = good[:2] + ["�� bad"] + good[2:]
    return Batch(("validate", "--type", "Sanitised"),
                 [Line(t, None, flags_of(t, False), "cli_undecodable_file") for t in texts],
                 raw_bytes=data)


def cli_batch(seed: int, n: int = 1000) -> list[Batch]:
    """One cycle of CLI invocations: a file per command and type, plus one
    small file with an undecodable line, whose whole invocation must exit 2."""
    rng = make_rng("cli_batch", seed)
    batches = [_batch(rng, spec, n) for spec in CLI_BATCHES]
    batches.insert(rng.randrange(len(batches) + 1), _undecodable_batch(rng))
    return batches


# --------------------------------------------------------------- cold starts

def cold_start_case(workload: str, seed: int) -> tuple[tuple, dict]:
    """One-input CLI arguments drawn from the workload's traffic, and the
    record fields the CLI must write for them."""
    rng = make_rng(f"{workload}/cold", seed)
    if workload == "cli_batch":
        raw = _slug(rng, 20)
        return ("normalize", "--type", "Slug", raw), {"normalized": raw}
    if workload == "long_tokens":
        raw, _ = _long_sanitised(rng, 400, False, False)
        return ("validate", "--type", "Sanitised", raw), {"normalized": raw}
    if workload == "expr_nesting":
        item = _expr_item(rng, 6, False)
        return ("normalize", "--type", "Expr", item.args[0]), {"normalized": item.expect[2]}
    raw, answer = _email(rng, True)
    return (("narrow", "--from", "Email", "--to", "Gmail", raw),
            _narrowed("Gmail", answer))
