"""Records of tokens parse with one re match, on accept and reject alike.

Standard library only; run from the repository root as
``PYTHONPATH=src python -W error tests/smoke/single_match.py``.
"""

from strtype.builtins import USPhone, build_registry
reg = build_registry()
def report(name, raw):
    parse = reg.from_raw(name, raw).error.parse
    return parse.pos, parse.expected
assert report("Email", "a@b") == (3, '"."')
assert report("CssColour", "#1g") == (2, "a hex digit")
phone = reg.from_raw("USPhone", "212 555-1234").value
assert phone.structure == USPhone(212, 555, 1234)
assert phone.spans == {"area": (0, 3), "office": (4, 7), "uniq": (8, 12)}
assert reg.from_raw("InnerR", "a\nr b").value.structure.left == "a\n"
