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
every record and every ``--human`` line, for ``eq`` too. A record's
constant members are encoded once per run and each input encodes only
its own strings, through the encoder's string function; each record is
one write to stdout, made as soon as its input is handled.

Arguments are read by ``parse_args`` from the command table, as argparse
would read them, except that inputs may be split by options and a "-..."
argument with a space that names no option is an input.

Extra types can be supplied without touching code: point the
``STRTYPE_TYPES`` environment variable at a directory of definition
files, each holding a type name on the first line and a whole-string
token pattern on the second.
"""

from __future__ import annotations

import os
import re
import sys
from operator import attrgetter
from types import SimpleNamespace

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
        with open(path, "rb") as file:
            data = file.read()
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
    if not os.path.isdir(directory):
        raise _ConfigError(f"STRTYPE_TYPES is not a directory: {directory}")
    with os.scandir(directory) as entries:
        files = sorted(entry.path for entry in entries
                       if entry.is_file() and not entry.name.startswith("."))
    for entry in files:
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

# One C encoder, made from ``_json`` without importing ``json``, with the
# settings ``json.dumps(record, ensure_ascii=False)`` uses and no markers (a
# record holds no cycles). Without ``_json``, ``json``'s own encoder is used.
# ``encode_basestring`` is the string function of whichever encoder it is.
try:
    from _json import encode_basestring, make_encoder
except ImportError:
    import json
    from json.encoder import encode_basestring
    _encode = json.JSONEncoder(ensure_ascii=False).encode
else:
    def _default(o):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    _chunks = make_encoder(None, _default, encode_basestring, None, ": ", ", ",
                           False, False, True)

    def _encode(record: dict) -> str:
        return "".join(_chunks(record, 0))


def _emit(record: dict) -> None:
    """Write ``record`` as one JSON line, in one write, as soon as it is made."""
    sys.stdout.write(_encode(record) + "\n")


def _members(**members) -> str:
    """``members`` encoded to follow another member of a record."""
    return ", " + _encode(members)[1:-1]


_OK, _NOT_OK = _members(ok=True), _members(ok=False)


def _accepted(start: str | None, parsed, result, human, members=None) -> int:
    """End the record ``start`` opens with ``ok``, ``parsed``'s canonical form
    (if given) and ``members(result)``, if given; with no ``start`` (under
    --human), print ``human(result)``."""
    if start is None:
        print(human(result))
    else:
        normalized = ("" if parsed is None else
                      f', "normalized": {encode_basestring(parsed.cast())}')
        extra = "" if members is None else members(result)
        sys.stdout.write(f"{start}{_OK}{normalized}{extra}}}\n")
    return 0


def _rejected(start: str | None, raw: str, parse, prefix: str = "",
              field: str | None = None, extra: str = "") -> int:
    """End the record ``start`` opens with ``ok: false`` and an error ending
    in the failed ``field`` (if given) and members ``extra``; with no
    ``start`` (under --human), print ``prefix`` and input, a caret, the
    expectation and the failed field."""
    if start is None:
        print(f"{prefix}{raw}\n{' ' * (len(prefix) + parse.pos)}^\n"
              f"expected {parse.expected} at position {parse.pos}")
        if field is not None:
            print(f"field {field} failed")
    else:
        if field is not None:
            extra = f', "field": {encode_basestring(field)}{extra}'
        sys.stdout.write(f'{start}{_NOT_OK}, "error": {{"pos": {parse.pos}, "expected": '
                         f"{encode_basestring(parse.expected)}{extra}}}}}\n")
    return 1


def _json_value(value):
    """``value`` with each tuple as a list, the form --human shows it in."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


# ------------------------------------------------------------- commands

def _each_input(command):
    """The driver. ``command(reg, args)`` checks the configuration and gives
    the type to parse as, the record's first fields and the value handler,
    which gets the record's opening, or None under --human, where nothing
    of a record is built."""
    def run(reg, args) -> int:
        type_name, head, handle = command(reg, args)
        head = None if args.human else _members(**head)
        status = 0
        for raw in _gather_inputs(args):
            start = None if head is None else f'{{"input": {encode_basestring(raw)}{head}'
            result = reg.from_raw(type_name, raw)
            if isinstance(result, Err):
                status |= _rejected(start, raw, result.error.parse)
            else:
                status |= handle(start, raw, result.value)
        return status
    return run


def _parse(reg, args):
    """validate and normalize, which differ only in the --human line for an
    accepted input: "ok" for one, the canonical form for the other."""
    human = (lambda value: "ok") if args.command == "validate" else (
        lambda value: value.cast())

    def handle(start: str | None, raw: str, value) -> int:
        return _accepted(start, value, value, human)
    return args.type_name, {"type": args.type_name}, handle


def _extract(reg, args):
    field, fields = args.field, reg.get(args.type_name).fields
    if field is not None and field not in fields:
        raise _ConfigError(f"type {args.type_name!r} has no field {field!r}")
    if field is not None:
        pick, human, key = attrgetter(field), _json_value, "value"
    else:
        def pick(structure):
            return {name: getattr(structure, name) for name in fields}

        def human(got):
            return ", ".join(f"{k}={_json_value(v)!r}" for k, v in got.items()) or "(no fields)"
        key = "fields"

    def members(got):
        return _members(**{key: got})

    def handle(start: str | None, raw: str, value) -> int:
        return _accepted(start, value, pick(value.structure), human, members)
    named = {} if field is None else {"field": field}
    return args.type_name, {"type": args.type_name, **named}, handle


def _narrow(reg, args):
    source, target = args.from_type, args.to
    reg.get(source)
    reg.get(target)
    if not reg.is_descendant(target, source):
        raise _ConfigError(f"{target} is not a subtype of {source}")

    def human(checks):
        return f"{target}: ok ({checks} field checks)"

    def members(checks):
        return f', "checks": {checks}'

    def handle(start: str | None, raw: str, value) -> int:
        before = field_checks()
        narrowed = value.narrow(target)
        checks = field_checks() - before
        if isinstance(narrowed, Err):
            return _rejected(start, raw, narrowed.error.parse, field=narrowed.error.field)
        return _accepted(start, narrowed.value, checks, human, members)
    return source, {"from": source, "to": target}, handle


def _cmd_eq(reg, args) -> int:
    inputs = _gather_inputs(args)
    if len(inputs) != 2:
        raise _ConfigError(f"eq needs exactly two inputs, got {len(inputs)}")
    start = None if args.human else _encode(
        {"input": inputs, "type": args.type_name, "mode": args.mode})[:-1]
    values = []
    for index, raw in enumerate(inputs):
        result = reg.from_raw(args.type_name, raw)
        if isinstance(result, Err):
            return _rejected(start, raw, result.error.parse,
                             prefix=f"input {index}: ", extra=f', "index": {index}')
        values.append(result.value)
    return _accepted(start, None, _EQ_MODES[args.mode](*values),
                     lambda equal: f"{args.mode}: {'equal' if equal else 'not equal'}",
                     lambda equal: _members(equal=equal))


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


_HELP = dict.fromkeys(("-h", "--help"),
                      {"action": "help", "help": "show this help message and exit"})
_INPUT_OPTIONS = (("--file", {"help": "read inputs from this file, one per line"}),
                  ("--human", {"action": "store_true",
                               "help": "readable output instead of JSON records"}))

# Each level of the command line: its prog, help line, usage tail, help rows
# before its options', its options by flag and, for a command, how to run it.
_LEVELS = {name: (f"strtype {name}", summary, "[STRING ...]",
                  [("STRING", "input strings; falls back to --file, then stdin")],
                  {**_HELP, **dict(_INPUT_OPTIONS + tuple(own))}, run)
           for name, summary, run, *own in _INPUT_COMMANDS}
_LEVELS["list-types"] = ("strtype list-types", "show every registered type", "", [],
                         {**_HELP, **dict(_INPUT_OPTIONS[1:])}, _cmd_list_types)
_TOP = ("strtype", "validate, normalize and compare typed strings", "COMMAND ...",
        [(name, level[1]) for name, level in _LEVELS.items()], _HELP, None)


def _dest(flag: str, spec: dict) -> str:
    return spec.get("dest", flag[2:])


def _exit(level: tuple, error: str = ""):
    """Print the help of one ``level`` and exit 0; or, given an ``error``,
    print the usage line and the error to stderr and exit 2."""
    prog, summary, tail, rows, options, _ = level
    shown = {}
    for flag, spec in options.items():
        choices = spec.get("choices")
        metavar = "{" + ",".join(choices) + "}" if choices else _dest(flag, spec).upper()
        shown[flag] = flag if "action" in spec else f"{flag} {metavar}"
    del shown["--help"]
    usage = " ".join(["usage:", prog, *(text if options[flag].get("required") else f"[{text}]"
                                        for flag, text in shown.items()), tail]).rstrip()
    if error:
        sys.stderr.write(f"{usage}\n{prog}: error: {error}\n")
        raise SystemExit(2)
    rows = rows + [(text + ", --help" * (flag == "-h"), options[flag].get("help", ""))
                   for flag, text in shown.items()]
    print(usage, "", summary, "", *(f"  {left:<26}{right}".rstrip() for left, right in rows),
          sep="\n")
    raise SystemExit(0)


def _option(level: tuple, arg: str):
    """How argparse reads ``arg`` (not "--"): None for an input, else the flag
    it names (None if unknown) and the value after "=", if any. Unlike
    argparse, "-..." with a space that names no option before "=" is an input."""
    arg = "-h" if arg[1:] and arg.rstrip("h") == "-" else arg  # -hh is -h run together
    options, (name, eq, value) = level[4], arg.partition("=")
    found = [name] if name in options else [
        flag for flag in options if name.startswith("--") and flag.startswith(name)]
    if len(found) > 1:
        _exit(level, f"ambiguous option: {arg} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    if arg[:1] != "-" or arg == "-" or " " in arg or re.match(r"^-\d+$|^-\d*\.\d+$", arg):
        return None
    return None, None


def _read(level: tuple, args: list[str]):
    """Read ``args`` as argparse does: an ambiguous prefix before "--" fails
    first, then options are taken from left to right and checked. Gives the
    options' values, the inputs and unknown options before "--", and the rest."""
    options, head = level[4], args[:args.index("--")] if "--" in args else args
    kinds = [_option(level, arg) for arg in head]
    values = {_dest(flag, spec): spec.get("default", False if "action" in spec else None)
              for flag, spec in options.items() if flag not in _HELP}
    inputs, unknown, taken = [], [], iter(zip(head, kinds))
    for arg, kind in taken:
        spec = options.get(kind and kind[0])
        if spec is None:
            (unknown if kind else inputs).append(arg)
            continue
        flag, value = kind
        if "action" in spec and value is not None:
            _exit(level, f"argument {flag}: ignored explicit argument {value!r}")
        if flag in _HELP:
            _exit(level)
        if value is None:
            value, kind = (True, None) if "action" in spec else next(taken, (None, ()))
            if kind is not None:
                _exit(level, f"argument {flag}: expected one argument")
        if value not in spec.get("choices", (value,)):
            _exit(level, f"argument {flag}: invalid choice: {value!r} "
                         f"(choose from {', '.join(spec['choices'])})")
        values[_dest(flag, spec)] = value
    if missing := [flag for flag, spec in options.items()
                   if spec.get("required") and values[_dest(flag, spec)] is None]:
        _exit(level, f"the following arguments are required: {', '.join(missing)}")
    return values, inputs, unknown, args[len(head):]


def parse_args(argv: list[str]) -> SimpleNamespace:
    """``argv`` read against the command table: the command, its ``run``,
    its options' values and, if it reads any, its ``inputs``."""
    # Before the command only -h and --help are known; unknown options fail last.
    at = next((i for i, arg in enumerate(argv) if arg == "--" or not _option(_TOP, arg)),
              len(argv))
    unknown = _read(_TOP, argv[:at])[2]
    level = _LEVELS.get(argv[at] if at < len(argv) else None)
    if level is None:
        _exit(_TOP, f"choose a command from {', '.join(_LEVELS)}")
    values, inputs, more, rest = _read(level, argv[at + 1:])
    if level[3]:  # it reads inputs: those before "--" and all after it
        values["inputs"], inputs, rest = inputs + rest[1:], [], []
    if unknown := unknown + more + inputs + rest:
        _exit(level, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=argv[at], run=level[5], **values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
