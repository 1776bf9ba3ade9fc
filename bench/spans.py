"""Spans around strtype's layer entry points, recorded from the benchmark's side.

Each entry point is swapped for a wrapper at the place its callers look it
up: a class attribute, or a module global that another module reads. No
strtype file changes. A span is ``(id, parent, item, start_ns, end_ns,
name, note)``; ``note`` holds what the span's result says about the work
(characters matched, accepted or not). Spans stay in memory until the run
ends. A span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import time

_RAISED = object()


def _matched(args, result):
    return -1 if result is None else result - args[2]


def _accepted(args, result):
    return 0 if hasattr(result, "expected") else 1


def _is_err(args, result):
    return 1 if type(result).__name__ == "Err" else 0


_OPS = ["blend", "concat_names", "raw_concat", "append_to_name",
        "project_field", "add_units", "normalize"]

# (span name, module, attribute path, note) for each place callers look an
# entry point up. check_field is reached both from core and from ops.
ENTRY_POINTS = [
    ("patterns.match_end", "strtype.patterns", "TokenPattern.match_end", _matched),
    ("combinators.run_to_end", "strtype.core", "run_to_end", _accepted),
    ("core.check_field", "strtype.core", "check_field", None),
    ("core.check_field", "strtype.ops", "check_field", None),
    ("core.from_structure", "strtype.ops", "from_structure", None),
    ("core.from_raw", "strtype.core", "TypeRegistry.from_raw", None),
    ("core.narrow", "strtype.core", "ParsedString.narrow", lambda a, r: 1 - _is_err(a, r)),
    ("builtins.cast", "strtype.core", "ParsedString.cast", None),
    ("builtins.hash", "strtype.core", "ParsedString.__hash__", None),
    ("builtins.build_registry", "strtype", "build_registry", None),
    ("builtins.build_registry", "strtype.cli", "build_registry", None),
    ("cli.main", "strtype.cli", "main", None),
] + [(f"ops.{name}", "strtype.ops", name, _is_err) for name in _OPS]


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, module, path, note in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, note):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.item, start, end, name,
                              None if note is None or result is _RAISED
                              else note(args, result)))
        return traced


def self_times(spans) -> dict[str, list[int]]:
    """Per span name: [count, self time in ns, sum of non-negative notes,
    count of non-negative notes]."""
    covered: dict[int, int] = {}
    for _, parent, _, start, end, _, _ in spans:
        if parent:
            covered[parent] = covered.get(parent, 0) + end - start
    out: dict[str, list[int]] = {}
    for sid, _, _, start, end, name, note in spans:
        entry = out.setdefault(name, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += end - start - covered.get(sid, 0)
        if note is not None and note >= 0:
            entry[2] += note
            entry[3] += 1
    return out


# Per-layer metrics: name, unit, and whether the value is a count (read
# from one pass over the workload's fixed inputs, so it repeats exactly)
# or a time (the median over traced passes).
PER_LAYER = [
    ("patterns.calls", "count", True), ("patterns.chars_matched", "count", True),
    ("patterns.self_s", "s", False), ("patterns.us_per_char", "us/char", False),
    ("patterns.match_ratio", "ratio", True),
    ("combinators.parses", "count", True), ("combinators.self_s", "s", False),
    ("combinators.us_per_parse", "us", False), ("combinators.accept_ratio", "ratio", True),
    ("core.from_raw.calls", "count", True), ("core.from_raw.self_s", "s", False),
    ("core.narrow.calls", "count", True), ("core.narrow.self_s", "s", False),
    ("core.narrow.ok_ratio", "ratio", True), ("core.field_checks", "count", True),
    ("core.from_structure.calls", "count", True), ("core.from_structure.self_s", "s", False),
    ("builtins.cast.calls", "count", True), ("builtins.cast.self_s", "s", False),
    ("builtins.hash.self_s", "s", False), ("builtins.build_registry_s", "s", False),
    ("ops.calls", "count", True), ("ops.self_s", "s", False), ("ops.err_ratio", "ratio", True),
    ("cli.invocations", "count", True), ("cli.lines", "count", True),
    ("cli.self_s", "s", False), ("cli.us_per_line", "us/line", False),
    ("trace.overhead", "ratio", False),
]


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(spans, cli_lines: int = 0) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload's inputs."""
    st = self_times(spans)

    def get(name):
        return st.get(name, [0, 0, 0, 0])

    def secs(name):
        return get(name)[1] / 1e9

    match, parse, narrow = get("patterns.match_end"), get("combinators.run_to_end"), get("core.narrow")
    ops = [v for k, v in st.items() if k.startswith("ops.")]
    op_calls = sum(v[0] for v in ops)
    out = {
        "patterns.calls": match[0], "patterns.chars_matched": match[2],
        "patterns.self_s": secs("patterns.match_end"),
        "patterns.us_per_char": _ratio(match[1] / 1e3, match[2]),
        "patterns.match_ratio": _ratio(match[3], match[0]),
        "combinators.parses": parse[0], "combinators.self_s": secs("combinators.run_to_end"),
        "combinators.us_per_parse": _ratio(parse[1] / 1e3, parse[0]),
        "combinators.accept_ratio": _ratio(parse[2], parse[0]),
        "core.from_raw.calls": get("core.from_raw")[0],
        "core.from_raw.self_s": secs("core.from_raw"),
        "core.narrow.calls": narrow[0], "core.narrow.self_s": secs("core.narrow"),
        "core.narrow.ok_ratio": _ratio(narrow[2], narrow[0]),
        "core.field_checks": get("core.check_field")[0],
        "core.from_structure.calls": get("core.from_structure")[0],
        "core.from_structure.self_s": secs("core.from_structure"),
        "builtins.cast.calls": get("builtins.cast")[0],
        "builtins.cast.self_s": secs("builtins.cast"),
        "builtins.hash.self_s": secs("builtins.hash"),
        "ops.calls": op_calls, "ops.self_s": sum(v[1] for v in ops) / 1e9,
        "ops.err_ratio": _ratio(sum(v[2] for v in ops), op_calls),
        "cli.invocations": get("cli.main")[0], "cli.lines": cli_lines,
        "cli.self_s": secs("cli.main"),
        "cli.us_per_line": _ratio(get("cli.main")[1] / 1e3, cli_lines),
    }
    return out


def per_layer(passes: list[dict], builds: list[float], overhead: float) -> dict[str, float]:
    """Every per-layer metric: counts from the first pass, times as medians
    over passes, the registry build as the median over builds."""
    out = {}
    for name, _, is_count in PER_LAYER:
        if name == "trace.overhead":
            out[name] = overhead
        elif name == "builtins.build_registry_s":
            out[name] = statistics.median(builds) if builds else 0.0
        elif is_count:
            out[name] = passes[0][name]
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out


def registry_builds(spans) -> list[float]:
    """Durations in seconds of every registry build among ``spans``."""
    return [(end - start) / 1e9 for _, _, _, start, end, name, _ in spans
            if name == "builtins.build_registry"]


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("id\tparent\titem\tstart_ns\tend_ns\tname\tnote\n")
        for span in spans:
            out.write("\t".join("" if v is None else str(v) for v in span) + "\n")
