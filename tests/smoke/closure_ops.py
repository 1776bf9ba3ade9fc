"""blend, concat_names and add_units render their result with its spans and
check each field there, with no parse. A result that leaves a subtype
raises InvalidStructureError, as from_structure does, and so does a
structure the cast cannot render.

Standard library only; run from the repository root as
``PYTHONPATH=src python -W error tests/smoke/closure_ops.py``.
"""

from strtype.builtins import build_registry
from strtype.combinators import pattern
from strtype.core import InvalidStructureError, from_structure, subtype
from strtype.ops import add_units, blend, concat_names
reg = build_registry()
reg.register(subtype(reg.get("Email"), "ShortName", name=pattern("[a-z]{1,3}")))
def value(name, raw):
    return reg.from_raw(name, raw).value
def pinned(v):
    return v.type_name, v.raw, list(v.spans.items())
mixed = blend(value("CssColour", "#111"), value("CssColour", "#ff0000"))
assert pinned(mixed) == ("CssColour", "#ff1111",
                         [("red", (1, 3)), ("green", (3, 5)), ("blue", (5, 7))]), mixed
joined = concat_names(value("Gmail", "ab@gmail.com"), value("Email", "cd@x.org"))
assert pinned(joined) == ("Gmail", "abcd@gmail.com", [
    ("name", (0, 4)), ("domain_left", (5, 10)), ("domain_right", (11, 14))]), joined
total = add_units(value("CssUnit", "1pc"), value("CssUnit", "16px")).value
assert pinned(total) == ("CssUnit", "2pc", [("value", (0, 1)), ("unit", (1, 3))]), total
short = value("ShortName", "abc@x.yz"), value("ShortName", "def@x.yz")
for build in (lambda: concat_names(*short), lambda: from_structure(reg, "Expr", "3 + 4")):
    try:
        build()
    except InvalidStructureError:
        continue
    raise AssertionError("expected InvalidStructureError")
