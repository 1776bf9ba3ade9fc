"""One library workload in a fresh process: set up, time, check, report.

    python3 lib_child.py WORKLOAD SEED SECONDS TRACE OUT_DIR

Runs WORKLOAD's items in a closed loop with one caller until SECONDS have
passed and prints one JSON summary as its last line. With TRACE 1 it
alternates traced and untraced passes over the items instead and reports
per-layer metrics; the spans go to OUT_DIR.

strtype must be importable (the parent puts the checkout's ``src`` first on
PYTHONPATH).
"""

from __future__ import annotations

import os
import resource
import sys
import time
from array import array

from check import Tally, matches
from setup_probe import setup_registry


# --------------------------------------------------------------------- items

def _structure_key(structure):
    import dataclasses
    return (type(structure).__name__,
            tuple(getattr(structure, f.name) for f in dataclasses.fields(structure)))


def _preorder(tree):
    """The tree as a flat preorder of operator letters and constants, walked
    without recursion so that a 2,000-term sum does not overflow."""
    import strtype
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, strtype.Const):
            out.append(node.n)
        else:
            out.append("A" if isinstance(node, strtype.Add) else "M")
            stack.append(node.r)
            stack.append(node.l)
    return tuple(out)


class Workload:
    """The items of one workload, how to run each, and how to read the result.

    ``run`` holds only the library calls an item makes; ``outcome`` turns
    what ``run`` returned into the shape of the item's expected answer and
    runs outside the timed section.
    """

    def __init__(self, name: str, seed: int, registry):
        import gen
        import strtype
        import strtype.ops

        self.registry = registry
        self.seen: set = set()
        self.values: dict[str, list] = {}
        self.Err = strtype.Err
        self.ops = strtype.ops
        if name == "long_tokens":
            self.items = gen.long_tokens(seed)
        elif name == "expr_nesting":
            self.items = gen.expr_nesting(seed)
        else:
            raws, self.items = gen.typed_ops(seed)
            for type_name, pool in raws.items():
                results = [registry.from_raw(type_name, raw) for raw in pool]
                bad = [raw for raw, r in zip(pool, results) if isinstance(r, strtype.Err)]
                if bad:
                    raise SystemExit(f"set-up values rejected as {type_name}: {bad[:3]}")
                self.values[type_name] = [r.value for r in results]

    def new_pass(self) -> None:
        self.seen.clear()

    def run(self, item):
        op, args = item.op, item.args
        if op == "parse":
            return self.registry.from_raw(*args)
        if op == "expr" or op == "ab":
            result = self.registry.from_raw("Expr" if op == "expr" else "EqualAandB", args[0])
            if isinstance(result, self.Err):
                return result, None, None
            value = result.value
            canonical = value.cast()
            self.seen.add(value)
            count = len(self.ops.sub_expressions(value.structure)) if op == "expr" else None
            return result, canonical, count
        values = self.values
        if op == "narrow":
            return values[args[0]][args[1]].narrow(args[2])
        if op == "widen":
            return values[args[0]][args[1]].widen(args[2])
        if op == "eq":
            pool = values[args[0]]
            return getattr(pool[args[1]], args[3])(pool[args[2]])
        if op == "blend":
            return self.ops.blend(values["CssColour"][args[0]], values["CssColour"][args[1]])
        if op == "concat":
            return self.ops.concat_names(values[args[0]][args[1]], values["Email"][args[2]])
        if op == "add_units":
            return self.ops.add_units(values["CssUnit"][args[0]], values["CssUnit"][args[1]])
        if op == "append":
            return self.ops.append_to_name(values[args[0]][args[1]], args[2])
        raise ValueError(f"unknown op {op!r}")

    def outcome(self, item, got) -> tuple:
        op = item.op
        if isinstance(got, BaseException):
            return ("raised", type(got).__name__)
        if op == "parse":
            return ("err",) if isinstance(got, self.Err) else (
                "ok", _structure_key(got.value.structure))
        if op in ("expr", "ab"):
            result, canonical, count = got
            if isinstance(result, self.Err):
                return ("err",)
            structure = result.value.structure
            if op == "ab":
                return ("ok", structure.count, canonical)
            return ("ok", _preorder(structure), canonical, count)
        if op in ("narrow", "add_units", "append"):
            if isinstance(got, self.Err):
                return ("err",) if op == "narrow" else ("err", got.error.kind.value)
            value = got.value
            if op == "narrow":
                return ("ok", value.type_name)
            if op == "add_units":
                return ("ok", value.structure.unit, value.raw_text())
            return ("ok", value.type_name, value.raw_text())
        if op == "widen":
            return ("str", got) if isinstance(got, str) else ("ok", got.type_name)
        if op == "eq":
            return ("eq", got)
        return ("ok", got.type_name, got.raw_text())


class Latencies:
    """Per-item times in a buffer allocated up front, so that the memory the
    benchmark holds does not grow with the number of items measured. Items
    beyond its capacity are counted but not recorded."""

    CAPACITY = 1 << 20

    def __init__(self):
        self.buffer = array("q", [0]) * self.CAPACITY
        self.n = 0

    def append(self, ns: int) -> None:
        if self.n < self.CAPACITY:
            self.buffer[self.n] = ns
            self.n += 1

    def summary(self) -> dict:
        return latency_summary(self.buffer[:self.n])


# The reference walks sets of states the way an NFA simulation does, in
# code no strtype change can touch.
_EDGES = [((i * 7 + 3) % 61, (i * 5 + 1) % 61) for i in range(61)]


def reference_s() -> float:
    """Seconds taken by the reference walk: the host's speed, read between
    items (see HostGauge in run.py)."""
    started = time.perf_counter()
    for _ in range(2):
        current = {0}
        for _ in range(30):
            moved = {t for s in current for t in _EDGES[s]}
            current = moved | {t for s in moved for t in _EDGES[s] if t % 3 == 0}
    return time.perf_counter() - started


def _check(work, tally, index, item, got) -> None:
    outcome = work.outcome(item, got)
    ok = matches(item, outcome)
    tally.add(index, item, ok, None if ok else {
        "op": item.op, "args": repr(item.args)[:120],
        "expect": repr(item.expect)[:120], "got": repr(outcome)[:120]})


def _one_pass(work, tally, deadline_ns, latencies, tracer=None, references=None):
    """Run the items once, or until the deadline, timing the reference walk
    into ``references`` every 100 ms. Returns (items, ns timed)."""
    clock = time.perf_counter_ns
    work.new_pass()
    done = timed = 0
    next_reference = 0
    for index, item in enumerate(work.items):
        if tracer is not None:
            tracer.item = index + 1
        start = clock()
        try:
            got = work.run(item)
        except Exception as exc:  # a raising item is a failed item, not a crash
            got = exc
        end = clock()
        if tracer is not None:
            tracer.item = 0
        timed += end - start
        done += 1
        if latencies is not None:
            latencies.append(end - start)
        _check(work, tally, index, item, got)
        if references is not None and end >= next_reference:
            references.append(reference_s())
            next_reference = clock() + 100_000_000
        if deadline_ns is not None and end >= deadline_ns:
            break
    return done, timed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_summary(latencies_ns) -> dict:
    """Median and p99 in microseconds (nearest rank), with the sample count
    and how many samples lie beyond the p99."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    rank = min(n - 1, int(0.99 * n))
    return {"n": n, "p50_us": ordered[n // 2] / 1e3, "p99_us": ordered[rank] / 1e3,
            "beyond_p99": n - rank - 1}


def measure(work, seconds: float) -> dict:
    """End-to-end figures: untraced closed loop over the items until the time is up."""
    tally = Tally()
    warm = min(100, len(work.items))
    for item in work.items[:warm]:
        try:
            work.run(item)
        except Exception:
            pass
    latencies = Latencies()
    references: list[float] = []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    done = timed = 0
    while time.perf_counter_ns() < deadline:
        d, t = _one_pass(work, tally, deadline, latencies, references=references)
        done, timed = done + d, timed + t
    # Items the time did not reach are checked untimed, so that every item
    # of the seed is counted.
    for index, item in enumerate(work.items):
        if index not in tally:
            try:
                got = work.run(item)
            except Exception as exc:
                got = exc
            _check(work, tally, index, item, got)
    # Read before summarising, which allocates with the number of items.
    rss = peak_rss_mb()
    return {"items": done, "timed_s": timed / 1e9, "peak_rss_mb": rss,
            "latency": latencies.summary(), "references_s": references,
            "tally": tally.as_dict()}


def trace_run(work, seconds: float, out_dir: str, workload: str, setup_spans) -> dict:
    """Per-layer figures: traced passes over every item, alternating with
    untraced ones until the time is up.

    Counts come from the first traced pass, so they repeat exactly for a
    seed; times are medians over the traced passes.
    """
    import statistics
    import strtype
    from spans import Tracer, pass_metrics, per_layer, registry_builds, write_spans

    tally = Tally()
    tracer = Tracer()
    passes, untraced_rates, traced_rates, all_spans = [], [], [], list(setup_spans)
    checks_agree = True
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    traced = True
    while not passes or not untraced_rates or time.perf_counter_ns() < deadline:
        if traced:
            before = strtype.field_checks()
            tracer.spans.clear()
            tracer.install()
            try:
                done, timed = _one_pass(work, tally, None, None, tracer)
            finally:
                tracer.remove()
            passes.append(pass_metrics(tracer.spans))
            checks_agree &= passes[-1]["core.field_checks"] == strtype.field_checks() - before
            traced_rates.append(done / (timed / 1e9))
            all_spans += tracer.spans
        else:
            done, timed = _one_pass(work, tally, None, None)
            untraced_rates.append(done / (timed / 1e9))
        traced = not traced
    write_spans(os.path.join(out_dir, f"spans-{workload}.tsv"), all_spans)
    overhead = statistics.median(traced_rates) / statistics.median(untraced_rates)
    return {"per_layer": per_layer(passes, registry_builds(all_spans), overhead),
            "passes": len(passes), "field_checks_agree": checks_agree,
            "tally": tally.as_dict()}


def main(argv: list[str]) -> int:
    import json
    workload, seed, seconds, trace, out_dir = argv
    from gen import SLUG_PATTERN
    setup_spans = []
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            registry = setup_registry(workload, SLUG_PATTERN)
        finally:
            tracer.remove()
        setup_spans = tracer.spans
    else:
        registry = setup_registry(workload, SLUG_PATTERN)
    work = Workload(workload, int(seed), registry)
    if trace == "1":
        report = trace_run(work, float(seconds), out_dir, workload, setup_spans)
    else:
        report = measure(work, float(seconds))
    import strtype
    report["strtype_file"] = strtype.__file__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
