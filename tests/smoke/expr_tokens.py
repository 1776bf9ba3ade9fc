"""Expr parses over tokens that str methods cut: lstrip bounds the run of
characters the grammar knows, so split cuts at no other whitespace and a
digit token holds ASCII digits only. A stop before the end finds its
position by stepping over the tokens. Leaves of at most 3 digits are
shared, from a table of at most 1,110 entries.

Standard library only; run from the repository root as
``PYTHONPATH=src python -W error tests/smoke/expr_tokens.py``.
"""

from strtype.builtins import _EXPR, _LEAVES, Add, Const, build_registry
from strtype.combinators import Success
from strtype.ops import sub_expressions
reg = build_registry()
def report(raw):
    parse = reg.from_raw("Expr", raw).error.parse
    return parse.pos, parse.expected
assert report("1\xa0+2") == (1, "end of input")
assert report("1+\u0663") == (1, "end of input")
assert report("(1\u2028)") == (2, '")"')
terms = " + ".join(str(n % 1000) for n in range(2000))
flat = reg.from_raw("Expr", terms.replace(" ", "")).value
assert len(sub_expressions(flat.structure)) == 3999
assert flat.cast() == terms
assert report(terms + " +") == (len(terms) + 1, "end of input")
deep = reg.from_raw("Expr", "(" * 300 + "7" + ")" * 300).value
assert deep.structure == Const(7) and deep.cast() == "7"
assert _EXPR.run("x(1 + 2) 3", 1) == Success((Add(Const(1), Const(2)), {}), 9)
seven = reg.from_raw("Expr", "7+7").value.structure
assert seven == Add(Const(7), Const(7)) and seven.l is seven.r
assert report("1 2" + " + 3" * 2000) == (2, "end of input")
for n in range(0, 10 ** 6, 97):
    reg.from_raw("Expr", str(n))
assert len(_LEAVES) <= 1110 and all(len(token) <= 3 for token in _LEAVES)
