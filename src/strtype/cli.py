"""Batch command line interface over the type registry.

Each parsing command reads input strings (arguments, ``--file``, or
stdin, in that order of preference) and writes one JSON record per line
to stdout; ``--human`` swaps the records for readable output with a
caret under the failure position. Exit status is 0 when every input was
handled, 1 when any input failed to parse or violated closure, and 2
for configuration problems such as an unknown type name. A closed
stdout (``| head``) ends the run quietly with exit status 1.

One driver parses each input of a per-input command and ORs the exit
statuses; two renderers, for an accepted and for a rejected input, write
every record and every ``--human`` line, for ``eq`` too.

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
from .core import (Err, ParsedString, RegistryError, TypeRegistry,
                   field_checks, opaque_type)
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
        # Python decodes arguments with surrogateescape, so bytes that are
        # not UTF-8 arrive as lone surrogates, which no record can encode.
        for index, raw in enumerate(args.inputs, 1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise _ConfigError(f"cannot read argument {index}: {exc}") from exc
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

_ENCODER = json.JSONEncoder(ensure_ascii=False)
# ``_ENCODER.encode`` builds a C encoder per call, so one is built here, with
# the settings ``json.dumps(record, ensure_ascii=False)`` uses, and reused. A
# record holds no cycles, so it keeps no markers. Without ``_json`` there is
# no C encoder, and ``_ENCODER.encode`` is used.
if json.encoder.c_make_encoder is None:
    _encode = _ENCODER.encode
else:
    _chunks = json.encoder.c_make_encoder(
        None, _ENCODER.default, json.encoder.encode_basestring, None, ": ", ", ",
        False, False, True)

    def _encode(record: dict) -> str:
        return "".join(_chunks(record, 0))


def _emit(record: dict) -> None:
    """Write ``record`` as one JSON line, in one write, as soon as it is made."""
    sys.stdout.write(_encode(record) + "\n")


def _accepted(args, record: dict, parsed, human, **extra) -> int:
    """Write ``record`` with ``ok``, the canonical form of ``parsed`` (if
    given) and ``extra``; under --human, the line ``human()`` makes."""
    if args.human:
        print(human())
    else:
        record["ok"] = True
        if parsed is not None:
            record["normalized"] = parsed.cast()
        record.update(extra)
        _emit(record)
    return 0


def _rejected(args, record: dict, raw: str, parse, prefix: str = "",
              note: str | None = None, **extra) -> int:
    """Write ``record`` with ``ok: false`` and an error holding ``extra``;
    under --human, ``prefix`` and input, a caret, the expectation, ``note``."""
    if args.human:
        print(f"{prefix}{raw}\n{' ' * (len(prefix) + parse.pos)}^\n"
              f"expected {parse.expected} at position {parse.pos}")
        if note is not None:
            print(note)
    else:
        record["ok"] = False
        record["error"] = dict(pos=parse.pos, expected=parse.expected, **extra)
        _emit(record)
    return 1


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


# ------------------------------------------------------------- commands

def _each_input(command):
    """The driver. ``command(reg, args)`` checks the configuration and gives
    the type to parse as, the record's first fields and the value handler."""
    def run(reg, args) -> int:
        type_name, head, handle = command(reg, args)
        status = 0
        for raw in _gather_inputs(args):
            record = {"input": raw, **head}
            result = reg.from_raw(type_name, raw)
            if isinstance(result, Err):
                status |= _rejected(args, record, raw, result.error.parse)
            else:
                status |= handle(record, raw, result.value)
        return status
    return run


def _parse(reg, args):
    """validate and normalize, which differ only in the --human line for an
    accepted input: "ok" for one, the canonical form for the other."""
    def handle(record: dict, raw: str, value) -> int:
        human = (lambda: "ok") if args.command == "validate" else value.cast
        return _accepted(args, record, value, human)
    return args.type_name, {"type": args.type_name}, handle


def _extract(reg, args):
    field, fields = args.field, reg.get(args.type_name).fields
    if field is not None and field not in fields:
        raise _ConfigError(f"type {args.type_name!r} has no field {field!r}")

    def handle(record: dict, raw: str, value) -> int:
        if field is not None:
            got = _json_value(getattr(value.structure, field))
            return _accepted(args, record, value, lambda: got, value=got)
        got = {name: _json_value(getattr(value.structure, name))
               for name in fields}
        return _accepted(args, record, value, lambda: ", ".join(
            f"{k}={v!r}" for k, v in got.items()) or "(no fields)", fields=got)
    named = {} if field is None else {"field": field}
    return args.type_name, {"type": args.type_name, **named}, handle


def _narrow(reg, args):
    source, target = args.from_type, args.to
    reg.get(source)
    reg.get(target)
    if not reg.is_descendant(target, source):
        raise _ConfigError(f"{target} is not a subtype of {source}")

    def handle(record: dict, raw: str, value) -> int:
        before = field_checks()
        narrowed = value.narrow(target)
        checks = field_checks() - before
        if isinstance(narrowed, Err):
            failed = narrowed.error.field
            return _rejected(args, record, raw, narrowed.error.parse,
                             note=f"field {failed} failed", field=failed)
        return _accepted(args, record, narrowed.value,
                         lambda: f"{target}: ok ({checks} field checks)",
                         checks=checks)
    return source, {"from": source, "to": target}, handle


def _cmd_eq(reg, args) -> int:
    inputs = _gather_inputs(args)
    if len(inputs) != 2:
        raise _ConfigError(f"eq needs exactly two inputs, got {len(inputs)}")
    record = {"input": inputs, "type": args.type_name, "mode": args.mode}
    values = []
    for index, raw in enumerate(inputs):
        result = reg.from_raw(args.type_name, raw)
        if isinstance(result, Err):
            return _rejected(args, record, raw, result.error.parse,
                             prefix=f"input {index}: ", index=index)
        values.append(result.value)
    equal = _EQ_MODES[args.mode](*values)
    return _accepted(args, record, None, lambda: f"{args.mode}: "
                     f"{'equal' if equal else 'not equal'}", equal=equal)


def _cmd_list_types(reg, args) -> int:
    for name in reg.names():
        descriptor = reg.get(name)
        parent = descriptor.parent
        overrides = [] if parent is None else [
            field for field, _ in descriptor.checks[len(reg.get(parent).checks):]]
        if not args.human:
            _emit({"type": name, "parent": parent, "overrides": overrides,
                   "fields": list(descriptor.fields)})
            continue
        parts = [name]
        if parent is not None:
            parts.append(f"parent={parent}")
        if overrides:
            parts.append(f"overrides=[{', '.join(overrides)}]")
        print(" ".join(parts + [f"fields=[{', '.join(descriptor.fields)}]"]))
    return 0


# ----------------------------------------------------------- entry point

_TYPE = ("--type", {"dest": "type_name", "required": True})

# Name, help, how to run and own arguments of each command that reads inputs.
_INPUT_COMMANDS = (
    ("validate", "check strings against a type", _each_input(_parse), _TYPE),
    ("normalize", "rewrite strings into canonical form", _each_input(_parse),
     _TYPE),
    ("extract", "pull structure fields out of strings", _each_input(_extract),
     _TYPE, ("--field", {"help": "extract just this field"})),
    ("eq", "compare two strings as values of a type", _cmd_eq, _TYPE,
     ("--mode", {"choices": sorted(_EQ_MODES), "default": "strict"})),
    ("narrow", "re-check strings of one type as a subtype",
     _each_input(_narrow), ("--from", {"dest": "from_type", "required": True}),
     ("--to", {"required": True})),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strtype",
        description="validate, normalize and compare typed strings")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, summary, run, *own in _INPUT_COMMANDS:
        sub = commands.add_parser(name, help=summary)
        sub.set_defaults(run=run)
        sub.add_argument(
            "inputs", nargs="*", metavar="STRING",
            help="input strings; falls back to --file, then stdin")
        sub.add_argument("--file",
                         help="read inputs from this file, one per line")
        sub.add_argument("--human", action="store_true",
                         help="readable output instead of JSON records")
        for flag, options in own:
            sub.add_argument(flag, **options)
    list_types = commands.add_parser(
        "list-types", help="show every registered type")
    list_types.set_defaults(run=_cmd_list_types)
    list_types.add_argument("--human", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_make_registry(), args)
    except (_ConfigError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script; a closed stdout ends it quietly, with status 1."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; give it a sink.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
