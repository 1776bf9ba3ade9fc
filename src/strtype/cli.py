"""Batch command line interface over the type registry.

Each parsing command reads input strings (arguments, ``--file``, or
stdin, in that order of preference) and writes one JSON record per line
to stdout; ``--human`` swaps the records for readable output with a
caret under the failure position. Exit status is 0 when every input was
handled, 1 when any input failed to parse or violated closure, and 2
for configuration problems such as an unknown type name.

Extra types can be supplied without touching code: point the
``STRTYPE_TYPES`` environment variable at a directory of definition
files, each holding a type name on the first line and a whole-string
token pattern on the second.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .builtins import build_registry
from .core import (
    Err,
    ParsedString,
    RegistryError,
    TypeRegistry,
    field_checks,
    opaque_type,
)
from .ops import project_field
from .patterns import PatternError

_EQ_MODES = {"raw": ParsedString.raw_eq,
             "weak": ParsedString.weak_eq,
             "strict": ParsedString.strict_eq}


class _ConfigError(Exception):
    """A problem with the invocation or environment, not with the data."""


# ---------------------------------------------------------------- input

def _lines(data: bytes | str, source: str) -> list[str]:
    """One input per line. Lines end at "\n" alone, less one trailing "\r";
    other boundaries ``str.splitlines`` knows, such as U+2028, are data."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _ConfigError(f"cannot read {source}: {exc}") from exc
    lines = data.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _read_lines(path) -> list[str]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _ConfigError(f"cannot read {path}: {exc}") from exc
    return _lines(data, path)


def _gather_inputs(args) -> list[str]:
    if args.inputs:
        return list(args.inputs)
    if args.file is not None:
        return _read_lines(args.file)
    # Decoded here: in the C locale the text stream lets undecodable bytes
    # through. A stream with no bytes underneath (a StringIO) is read as text.
    return _lines(getattr(sys.stdin, "buffer", sys.stdin).read(), "stdin")


# ------------------------------------------------------------- registry

def _load_extra_types(reg: TypeRegistry, directory: str) -> None:
    root = Path(directory)
    if not root.is_dir():
        raise _ConfigError(f"STRTYPE_TYPES is not a directory: {directory}")
    for entry in sorted(root.iterdir()):
        if not entry.is_file() or entry.name.startswith("."):
            continue
        lines = _read_lines(entry)
        if len(lines) < 2 or not lines[0].strip():
            raise _ConfigError(
                f"type file {entry} needs a name line and a pattern line")
        name, source = lines[0].strip(), lines[1]
        try:
            reg.register(opaque_type(name, source))
        except (PatternError, RegistryError) as exc:
            raise _ConfigError(f"type file {entry}: {exc}") from exc


def _make_registry() -> TypeRegistry:
    reg = build_registry()
    extra = os.environ.get("STRTYPE_TYPES")
    if extra:
        _load_extra_types(reg, extra)
    reg.freeze()
    return reg


# --------------------------------------------------------------- output

def _emit(record: dict) -> None:
    print(json.dumps(record, ensure_ascii=False))


def _caret(raw: str, pos: int, expected: str, prefix: str = "") -> str:
    return (f"{prefix}{raw}\n"
            f"{' ' * (len(prefix) + pos)}^\n"
            f"expected {expected} at position {pos}")


def _parse_failure(record: dict, human: bool, raw: str, parse) -> None:
    if human:
        print(_caret(raw, parse.pos, parse.expected))
    else:
        record["ok"] = False
        record["error"] = {"pos": parse.pos, "expected": parse.expected}
        _emit(record)


# ------------------------------------------------------------- commands

def _cmd_parse(reg, args) -> int:
    """validate and normalize, which differ only in the --human line for an
    accepted input: "ok" for one, the canonical form for the other."""
    worst = 0
    for raw in _gather_inputs(args):
        record = {"input": raw, "type": args.type_name}
        result = reg.from_raw(args.type_name, raw)
        if isinstance(result, Err):
            _parse_failure(record, args.human, raw, result.error.parse)
            worst = 1
        elif args.human:
            print("ok" if args.command == "validate" else result.value.cast())
        else:
            record["ok"] = True
            record["normalized"] = result.value.cast()
            _emit(record)
    return worst


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def _cmd_extract(reg, args) -> int:
    descriptor = reg.get(args.type_name)
    if args.field is not None and args.field not in descriptor.fields:
        raise _ConfigError(
            f"type {args.type_name!r} has no field {args.field!r}")
    worst = 0
    for raw in _gather_inputs(args):
        record = {"input": raw, "type": args.type_name}
        if args.field is not None:
            record["field"] = args.field
        result = reg.from_raw(args.type_name, raw)
        if isinstance(result, Err):
            _parse_failure(record, args.human, raw, result.error.parse)
            worst = 1
            continue
        value = result.value
        if args.field is not None:
            got = _json_value(project_field(value, args.field).value)
            if args.human:
                print(got)
            else:
                record.update(ok=True, normalized=value.cast(), value=got)
                _emit(record)
        else:
            fields = {name: _json_value(getattr(value.structure, name))
                      for name in descriptor.fields}
            if args.human:
                pairs = ", ".join(f"{k}={v!r}" for k, v in fields.items())
                print(pairs if pairs else "(no fields)")
            else:
                record.update(ok=True, normalized=value.cast(), fields=fields)
                _emit(record)
    return worst


def _cmd_eq(reg, args) -> int:
    inputs = _gather_inputs(args)
    if len(inputs) != 2:
        raise _ConfigError(f"eq needs exactly two inputs, got {len(inputs)}")
    record = {"input": inputs, "type": args.type_name, "mode": args.mode}
    values = []
    for index, raw in enumerate(inputs):
        result = reg.from_raw(args.type_name, raw)
        if isinstance(result, Err):
            parse = result.error.parse
            if args.human:
                print(_caret(raw, parse.pos, parse.expected,
                             prefix=f"input {index}: "))
            else:
                record["ok"] = False
                record["error"] = {"pos": parse.pos,
                                   "expected": parse.expected,
                                   "index": index}
                _emit(record)
            return 1
        values.append(result.value)
    equal = _EQ_MODES[args.mode](values[0], values[1])
    if args.human:
        print(f"{args.mode}: {'equal' if equal else 'not equal'}")
    else:
        record.update(ok=True, equal=equal)
        _emit(record)
    return 0


def _cmd_narrow(reg, args) -> int:
    reg.get(args.from_type)
    reg.get(args.to)
    if not reg.is_descendant(args.to, args.from_type):
        raise _ConfigError(
            f"{args.to} is not a subtype of {args.from_type}")
    worst = 0
    for raw in _gather_inputs(args):
        record = {"input": raw, "from": args.from_type, "to": args.to}
        result = reg.from_raw(args.from_type, raw)
        if isinstance(result, Err):
            _parse_failure(record, args.human, raw, result.error.parse)
            worst = 1
            continue
        before = field_checks()
        narrowed = result.value.narrow(args.to)
        checks = field_checks() - before
        if isinstance(narrowed, Err):
            parse = narrowed.error.parse
            if args.human:
                print(_caret(raw, parse.pos, parse.expected))
                print(f"field {narrowed.error.field} failed")
            else:
                record["ok"] = False
                record["error"] = {"pos": parse.pos,
                                   "expected": parse.expected,
                                   "field": narrowed.error.field}
                _emit(record)
            worst = 1
        elif args.human:
            print(f"{args.to}: ok ({checks} field checks)")
        else:
            record.update(ok=True, normalized=narrowed.value.cast(),
                          checks=checks)
            _emit(record)
    return worst


def _cmd_list_types(reg, args) -> int:
    for name in reg.names():
        descriptor = reg.get(name)
        if args.human:
            parts = [name]
            if descriptor.parent is not None:
                parts.append(f"parent={descriptor.parent}")
            if descriptor.overridden:
                parts.append(
                    f"overrides=[{', '.join(sorted(descriptor.overridden))}]")
            parts.append(f"fields=[{', '.join(descriptor.fields)}]")
            print(" ".join(parts))
        else:
            _emit({"type": name,
                   "parent": descriptor.parent,
                   "overrides": sorted(descriptor.overridden),
                   "fields": list(descriptor.fields)})
    return 0


# ----------------------------------------------------------- entry point

def _inputs_arguments(sub) -> None:
    sub.add_argument("inputs", nargs="*", metavar="STRING",
                     help="input strings; falls back to --file, then stdin")
    sub.add_argument("--file", help="read inputs from this file, one per line")
    sub.add_argument("--human", action="store_true",
                     help="readable output instead of JSON records")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strtype",
        description="validate, normalize and compare typed strings")
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="check strings against a type")
    _inputs_arguments(validate)
    validate.add_argument("--type", dest="type_name", required=True)

    normalize = commands.add_parser(
        "normalize", help="rewrite strings into canonical form")
    _inputs_arguments(normalize)
    normalize.add_argument("--type", dest="type_name", required=True)

    extract = commands.add_parser(
        "extract", help="pull structure fields out of strings")
    _inputs_arguments(extract)
    extract.add_argument("--type", dest="type_name", required=True)
    extract.add_argument("--field", help="extract just this field")

    eq = commands.add_parser(
        "eq", help="compare two strings as values of a type")
    _inputs_arguments(eq)
    eq.add_argument("--type", dest="type_name", required=True)
    eq.add_argument("--mode", choices=sorted(_EQ_MODES), default="strict")

    narrow = commands.add_parser(
        "narrow", help="re-check strings of one type as a subtype")
    _inputs_arguments(narrow)
    narrow.add_argument("--from", dest="from_type", required=True)
    narrow.add_argument("--to", required=True)

    list_types = commands.add_parser(
        "list-types", help="show every registered type")
    list_types.add_argument("--human", action="store_true")

    return parser


_COMMANDS = {
    "validate": _cmd_parse,
    "normalize": _cmd_parse,
    "extract": _cmd_extract,
    "eq": _cmd_eq,
    "narrow": _cmd_narrow,
    "list-types": _cmd_list_types,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        registry = _make_registry()
        return _COMMANDS[args.command](registry, args)
    except (_ConfigError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
