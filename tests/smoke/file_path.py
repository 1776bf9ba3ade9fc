"""FilePath parses with str scans: two finds fix the first separator, the
first of the other kind bounds the body, and the path ends before the
body's first empty segment. A lone relative segment has no separator
span. A one-point class is written bare, so sre runs its LITERAL and
NOT_LITERAL loops.

Standard library only; run from the repository root as
``PYTHONPATH=src python -W error tests/smoke/file_path.py``.
"""

from strtype.builtins import _PATH, FilePath, build_registry
from strtype.combinators import Success, lit
from strtype.patterns import TokenPattern, _regex_source
reg = build_registry()
def report(raw):
    parse = reg.from_raw("FilePath", raw).error.parse
    return parse.pos, parse.expected
path = reg.from_raw("FilePath", "a\\b\\c.txt").value
assert path.structure == FilePath(False, ("a", "b"), "c", "txt", "\\")
assert path.spans == {"separator": (1, 2), "dirs": (0, 3),
                      "file_name": (4, 5), "ext": (6, 9)}, path.spans
assert report("a/") == (1, "end of input")
head = _PATH.run("a/")
assert head.end == 1 and "separator" not in head.value[1], head
assert report("a/b\\c") == (3, "end of input")
assert report("/a/") == (2, "end of input")
assert report("/") == (1, "a path segment")
assert report("") == (0, "one of '/\\\\' or a path segment")
assert report("/a\\b") == (2, "end of input")
assert _PATH.run("x/a/b", 1) == Success((FilePath(True, ("a",), "b", None, "/"), {
    "separator": (1, 2), "dirs": (2, 3), "file_name": (4, 5)}), 5)
dirs, name = ("d\u00e9" * 500, "\u4e2d" * 999), "f\U0001f600" * 998
raw = "\\" + "\\".join(dirs + (name + ".t",))
assert len(raw) == 4000
path = reg.from_raw("FilePath", raw).value
assert path.structure == FilePath(True, dirs, name, "t", "\\")
assert path.spans == {"separator": (0, 1), "dirs": (1, 2001),
                      "file_name": (2002, 3998), "ext": (3999, 4000)}, path.spans
assert _regex_source(TokenPattern("[^r]*").plain_tree()) == r"[^\U00000072]{0,}"
assert _regex_source(lit("@").trees[0].plain_tree()) == r"\U00000040"
