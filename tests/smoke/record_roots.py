"""A record root reads its value off its single match, which checks the end
itself, and a subtype then runs its checks past the root, ancestor
first; any other root, or a record on the DFA, runs its recognizer. The
reports stay the kernel's.

Standard library only; run from the repository root as
``PYTHONPATH=src python -W error tests/smoke/record_roots.py``.
"""

from strtype.builtins import CssUnit, build_registry
from strtype.combinators import pattern
from strtype.core import Opaque, opaque_type, subtype
reg = build_registry()
hexish = reg.register(opaque_type("Hexish", "[0-9a-f]*[0-9]"))
hex_nine = reg.register(subtype(hexish, "HexNine", raw=pattern("[0-9a-f]*9")))
reg.register(subtype(hex_nine, "HexOne", raw=pattern("1[0-9a-f]*")))
def report(name, raw):
    parse = reg.from_raw(name, raw).error.parse
    return parse.pos, parse.expected
assert report("Email", "ab@cd.ef!") == (8, "end of input")
assert report("Gmail", "ab@yahoo.com") == (3, '"gmail"')
assert report("Gmail", "ab@gmail.com!") == (12, "end of input")
auto = reg.from_raw("CssUnit", "auto").value
assert auto.structure == CssUnit(value=None, unit="auto")
assert auto.spans == {"unit": (0, 4)}
assert report("Hexish", "ab12c") == (4, "end of input")
assert reg.from_raw("Hexish", "ab12c3").value.structure == Opaque("ab12c3")
assert report("HexOne", "13") == (0, "/[0-9a-f]*9/")
assert report("HexOne", "29") == (0, "/1[0-9a-f]*/")
assert report("HexOne", "ab12c") == (4, "end of input")
assert reg.from_raw("HexOne", "1a9").value.structure == Opaque("1a9")
assert report("HomeDotFile", "\\usr\\a") == (0, '"/"')
assert report("HomeDotFile", "/home/x/.a") == (5, "end of input")
assert report("HomeDotFile", "/home/a") == (6, '/\\.[^/\\\\]*/')
