"""A field check against a token or an alt of tokens runs only their
patterns; narrowing and parsing as the subtype report alike. Choice
across an alt of tokens is ordered: the first choice that matches.

Standard library only; run from the repository root as
``PYTHONPATH=src python -W error tests/smoke/field_checks.py``.
"""

from strtype.builtins import build_registry
from strtype.combinators import Failure, Success, check_to_end, lit, record
assert check_to_end(lit("p") | lit("px"), "px") == Failure(1, "end of input")
assert record(dict, ("u", lit("p") | lit("px")), lit("x")).run("px", 0) == \
    Success(({"u": "p"}, {"u": (0, 1)}), 2)
reg = build_registry()
def narrow_report(name, raw, sub):
    error = reg.from_raw(name, raw).value.narrow(sub).error
    return error.field, error.parse.pos, error.parse.expected
def parse_report(name, raw):
    parse = reg.from_raw(name, raw).error.parse
    return parse.pos, parse.expected
for name, raw, sub, want in [
        ("Email", "a@yahoo.com", "Gmail", ("domain_left", 2, '"gmail"')),
        ("Email", "a@gmailx.com", "Gmail", ("domain_left", 7, "end of input")),
        ("CssUnit", "12cm", "PxOrAuto", ("unit", 2, '"px" or "auto"')),
        ("FilePath", "/usr/.x", "HomeDotFile", ("dirs", 1, '"home"')),
        ("FilePath", "/homex/.a", "HomeDotFile", ("dirs", 5, "end of input")),
        ("FilePath", "a/b", "WindowsPath", ("separator", 1, '"\\"'))]:
    assert narrow_report(name, raw, sub) == want, (name, raw, sub)
    assert parse_report(sub, raw) == want[1:], (sub, raw)
assert parse_report("CssUnit", "12em") == (2, "a unit")
assert parse_report("CssUnit", "x") == (0, 'a number or "auto"')
