"""The package's public names, what importing the package loads and
compiles, and how its source reads ``TokenPattern.match_end``."""

import ast
import subprocess
import sys
from pathlib import Path

import strtype

PUBLIC_NAMES = [
    "Add", "Const", "CssColour", "CssUnit", "DuplicateTypeError", "Email",
    "EqualAandB", "Err", "ErrorKind", "Expr", "Failure", "FilePath",
    "InnerR", "InvalidStructureError", "Mult", "NontermError",
    "NotASubtypeError", "NotASupertypeError", "Ok", "OpError", "Opaque",
    "ParseError", "ParsedString", "Parser", "Projection", "RegistryError",
    "RegistryFrozenError", "StringType", "Success", "TypeRegistry",
    "USPhone", "UnknownFieldError", "UnknownParentError",
    "UnknownTypeError", "add_units", "append_to_name", "blend",
    "build_registry", "concat_names", "default_registry", "expr_text",
    "field_checks", "from_raw", "from_structure", "normalize",
    "opaque_type", "project_field", "raw_concat", "register_builtins",
    "reset_field_checks", "sub_expressions", "subtype", "to_centimetres",
]


def test_all_is_pinned():
    assert strtype.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 53


def test_each_public_name_resolves_on_the_package():
    modules = (strtype.builtins, strtype.combinators, strtype.core, strtype.ops)
    for name in PUBLIC_NAMES:
        value = getattr(strtype, name)
        assert name in ("default_registry", "from_raw") or any(
            getattr(module, name, None) is value for module in modules), name
    assert strtype.from_raw("Email", "a@b.c").value.cast() == "a@b.c"


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from strtype import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)


UNLOADED = {"dataclasses", "inspect", "argparse", "gettext", "pathlib"}


def test_import_leaves_dataclasses_inspect_argparse_gettext_and_pathlib_unloaded():
    # -S, so that no site hook loads these modules, or hides that strtype does.
    src = str(Path(strtype.__file__).resolve().parent.parent)
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import strtype.cli",
        f"print(sorted({UNLOADED!r} & set(sys.modules)))",
        "import dataclasses, strtype",
        "print([f.name for f in dataclasses.fields(strtype.Email)])",
    ])
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "['name', 'domain_left', 'domain_right']"]


def test_no_module_imports_argparse_gettext_or_pathlib():
    for path in sorted(Path(strtype.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
                assert not {"argparse", "gettext", "pathlib"} & set(names), f"{path.name}:{node.lineno}"


def _run_fresh(lines):
    """Run ``lines`` in a fresh interpreter with its default ``site``, as a
    user's process starts, with strtype's source first on the path."""
    src = str(Path(strtype.__file__).resolve().parent.parent)
    script = "\n".join(["import sys", f"sys.path.insert(0, {src!r})", *lines])
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_cli_import_leaves_json_unloaded():
    assert _run_fresh([
        "before = 'json' in sys.modules",
        "import strtype.cli",
        "print(('json' in sys.modules) == before)",
    ]) == ["True"]


def test_import_and_registry_build_compile_no_regex():
    # Each regex is compiled at the first parse that runs it; an Expr parse
    # runs none.
    out = _run_fresh([
        "import re",
        "calls, compile = [], re.compile",
        "def recorded(*args, **kwargs):",
        "    calls.append(sys._getframe(1).f_globals.get('__name__', ''))",
        "    return compile(*args, **kwargs)",
        "re.compile = recorded",
        "def ours():",
        "    return [name for name in calls if name.startswith('strtype')]",
        "import strtype, strtype.cli",
        "reg = strtype.build_registry()",
        "reg.register(strtype.opaque_type('Slug', '[a-z]+(-[a-z]+)*'))",
        "print(ours())",
        "path = reg.from_raw('FilePath', '/a/b').value",
        "print(repr(path.structure), path.spans)",
        "ab = reg.from_raw('EqualAandB', 'ab').value",
        "print(repr(ab.structure), ab.spans)",
        "expr = reg.from_raw('Expr', '(1+2)*3').value",
        "print(expr.cast())",
        "print(ours())",
    ])
    assert out == [
        "[]",
        "FilePath(absolute=True, dirs=('a',), file_name='b', ext=None, separator='/') "
        "{'separator': (0, 1), 'dirs': (1, 2), 'file_name': (3, 4)}",
        "EqualAandB(count=1) {}",
        "(1 + 2) * 3",
        str(["strtype.builtins"] * 2),
    ]


def test_match_end_is_looked_up_where_it_is_called():
    # ``bench/spans.py`` wraps ``TokenPattern.match_end`` after strtype is
    # imported; a ``match_end`` bound earlier would hide its calls.
    for path in sorted(Path(strtype.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "match_end"
                    and isinstance(node.ctx, ast.Load)):
                assert id(node) in called, f"{path.name}:{node.lineno}"
