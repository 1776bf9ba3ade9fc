"""strtype's benchmark: four workloads, end-to-end metrics, and a traced run
for per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py        # every workload in turn, seed 1, untraced

It imports strtype from the ``src`` directory of the checkout it sits in
and needs nothing beyond the standard library. Each library workload runs
in a fresh child process; cli_batch starts one CLI process at a time. All
workloads are closed loops with one caller on one thread. The inputs come
from the seed, and every item's result is checked against an answer the
benchmark worked out itself (see gen.py and check.py).

Workloads, and why each is here:

  cli_batch     The CLI user's traffic. normalize, validate, extract and
                narrow over files of short records of every builtin type and
                of one STRTYPE_TYPES definition type, a fifth malformed. The
                only workload with process start, argument parsing and JSON
                output; parsing splits between combinators and patterns.
  long_tokens   The pattern engine. from_raw on token fields of 200 to 4,000
                characters, rejections late in the string, and non-ASCII code
                points inside negated classes. patterns does most of the work.
  expr_nesting  The combinator kernel. from_raw, cast, hash and
                sub_expressions of loosely written Expr trees, and
                EqualAandB up to n = 500. No pattern calls at all, so a
                pattern-engine change must read "no change" here.
  typed_ops     Work on parsed values: narrowing (about 30% fail), widening,
                the three equalities, blend, concat_names, add_units and
                append_to_name. The only workload for ops and narrowing.

With --trace 0 the metrics are the end-to-end ones (run_workload and
README.md say what each means); with --trace 1 they are the per-layer ones
in spans.PER_LAYER. A run prints a
report with sample counts and provenance, writes the whole result (and,
traced, the spans) to bench/out/, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from check import Tally, check_lines, parse_records, record_ok
from lib_child import latency_summary
from spans import PER_LAYER, pass_metrics, per_layer, registry_builds, write_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("cli_batch", "long_tokens", "expr_nesting", "typed_ops")
SETUP_PROBES = 15  # fresh children per run; setup_s is their median
COLD_STARTS = 15   # one-input CLI runs per run; cold_start_ms is their median
NOMINAL_START_S = 0.05    # the bare interpreter start process times are scaled to
NOMINAL_WALK_S = 0.0012   # the reference walk library item times are scaled to
TIMEOUT_S = 170


class BenchError(Exception):
    """A child process of the benchmark failed."""


def _env(**extra) -> dict:
    """The children's environment: the caller's, minus every PYTHON* setting
    (unbuffered output or no bytecode cache would change what is measured),
    with strtype imported from this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8", PYTHONHASHSEED="0", **extra)
    return env


def _run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, env=env, cwd=ROOT,
                          encoding="utf-8", errors="replace", timeout=TIMEOUT_S)


def _checked(proc: subprocess.CompletedProcess) -> str:
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(proc.args[:4])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


class HostGauge:
    """The host's speed during each phase of a run, read from a reference of
    the same kind as the phase's work, taken between its steps.

    On a shared host the speed drifts by up to a half within minutes. Work
    slows in step with a reference of its own kind: over two minutes of
    such drift a CLI cold start spread by 32% between windows, and its
    ratio to a bare ``python3 -c pass`` start by 3%; typed_ops' items per
    second spread by 26% over 39 fresh runs, and their ratio to a fixed
    walk over sets of states in plain Python by 13%. Phases that start
    processes (set-up probes, cold starts, CLI batches) are read with bare
    interpreter starts; library items with that walk, which the child
    times every 100 ms (``lib_child.reference_s``). A phase's
    times are multiplied by ``factor(phase)``, the nominal reference time
    over the median measured one, and the raw figures stay in the report.
    Neither reference runs strtype code, so no strtype change moves it.
    """

    def __init__(self):
        self.phases: dict[str, tuple[float, list[float]]] = {}

    def sample(self, phase: str) -> None:
        """Time one bare interpreter start for ``phase``."""
        started = time.perf_counter()
        _checked(_run([sys.executable, "-c", "pass"], _env()))
        self.add(phase, NOMINAL_START_S, [time.perf_counter() - started])

    def add(self, phase: str, nominal: float, samples: list[float]) -> None:
        self.phases.setdefault(phase, (nominal, []))[1].extend(samples)

    def factor(self, phase: str) -> float:
        nominal, samples = self.phases[phase]
        return nominal / statistics.median(samples)

    def as_dict(self) -> dict:
        return {phase: {"nominal_ms": nominal * 1e3, "n": len(samples),
                        "median_ms": statistics.median(samples) * 1e3}
                for phase, (nominal, samples) in self.phases.items()}


# ---------------------------------------------------------------- provenance

def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "strtype").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"cpus": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "executable": sys.executable,
            "commit": _commit(),
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


# ------------------------------------------------------- set-up, cold starts

def setup_times(workload: str, gauge: HostGauge) -> list[float]:
    """Seconds to import strtype and build the workload's registry, each in
    a fresh child; the first child only warms the bytecode and file caches."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        out = _checked(_run([sys.executable, str(BENCH / "setup_probe.py"),
                             workload, gen.SLUG_PATTERN], _env()))
        if probe:
            times.append(float(out.split()[-1]))
            gauge.sample("setup")
    return times


def cold_starts(workload: str, seed: int, env: dict, tally: Tally,
                gauge: HostGauge) -> list[float]:
    """Seconds from spawn to exit of a one-input CLI run, checked like any item."""
    argv, expect = gen.cold_start_case(workload, seed)
    probe = gen.Line(argv[-1], expect, gen.flags_of(argv[-1], False))
    walls = []
    for run in range(COLD_STARTS + 1):
        if run:
            gauge.sample("cold")
        started = time.perf_counter()
        proc = _run([sys.executable, "-m", "strtype.cli", *argv], env)
        wall = time.perf_counter() - started
        if not run:
            continue
        walls.append(wall)
        records = parse_records(proc.stdout)
        ok = proc.returncode == 0 and len(records) == 1 and record_ok(records[0], expect)
        tally.add("cold_start", probe, ok, None if ok else {"cold_start": argv[:4], "exit": proc.returncode,
                                              "stdout": proc.stdout[:200]})
    return walls


# ------------------------------------------------------------ library runs

def library_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = _run([sys.executable, str(BENCH / "lib_child.py"), workload, str(seed),
                 str(seconds), str(trace), str(OUT)], _env())
    report = json.loads(_checked(proc).strip().splitlines()[-1])
    if not Path(report["strtype_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"strtype was imported from {report['strtype_file']}")
    return report


# ---------------------------------------------------------------- cli_batch

class CliRunner:
    """Writes a seed's batch files and runs the CLI over them one at a time."""

    def __init__(self, seed: int, scratch: Path, env: dict):
        self.batches = gen.cli_batch(seed)
        self.env = env
        self.report_path = scratch / "cli-report.json"
        self.paths = []
        for k, batch in enumerate(self.batches):
            path = scratch / f"batch{k}.txt"
            path.write_bytes(batch.raw_bytes if batch.raw_bytes is not None else
                             "".join(line.text + "\n" for line in batch.lines).encode())
            self.paths.append(path)

    def invoke(self, k: int, traced: bool, tally: Tally) -> tuple[int, dict]:
        """Run batch ``k`` once and check its output. Returns the wall time in
        ns from spawn to exit, and what the child noted about itself."""
        batch = self.batches[k]
        argv = [sys.executable, str(BENCH / "cli_child.py"), "1" if traced else "0",
                str(self.report_path), *batch.argv, "--file", str(self.paths[k])]
        started = time.perf_counter_ns()
        proc = _run(argv, self.env)
        wall = time.perf_counter_ns() - started
        try:
            noted = json.loads(self.report_path.read_text(encoding="utf-8"))
            self.report_path.unlink()
        except FileNotFoundError:
            raise BenchError(f"cli_child.py left no report:\n{proc.stderr[-2000:]}") from None
        if batch.raw_bytes is not None:
            # README: an unreadable --file is a configuration error, exit 2.
            ok = proc.returncode == 2 and "Traceback" not in proc.stderr and not proc.stdout
            results = [ok] * len(batch.lines)
        else:
            results = check_lines(batch.lines, parse_records(proc.stdout))
            if proc.returncode != (1 if any(l.expect is None for l in batch.lines) else 0):
                results = [False] * len(results)
        for index, (line, ok) in enumerate(zip(batch.lines, results)):
            tally.add((k, index), line, ok, None if ok else {
                "argv": " ".join(batch.argv), "line": line.text[:80], "exit": proc.returncode})
        return wall, noted


def cli_measure(runner: CliRunner, seconds: float, tally: Tally, gauge: HostGauge) -> dict:
    """Whole cycles over the batch files until the time is up."""
    lines = wall = cycles = 0
    latencies: list[int] = []
    rss = 0.0
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        for k, batch in enumerate(runner.batches):
            gauge.sample("work")
            ns, noted = runner.invoke(k, False, tally)
            lines += len(batch.lines)
            wall += ns
            stamps = noted["stamps"]
            # The first record also waits for start-up; the others each
            # wait for exactly one line.
            latencies += [b - a for a, b in zip(stamps, stamps[1:])]
            if not cycles:
                rss = max(rss, noted["peak_rss_mb"])
        cycles += 1
    return {"items": lines, "timed_s": wall / 1e9, "latency": latency_summary(latencies),
            "peak_rss_mb": rss, "rss_children": len(runner.batches)}


def _renumber(spans, offset: int, item: int) -> list[tuple]:
    return [(sid + offset, parent + offset if parent else 0, item, start, end, name, note)
            for sid, parent, _, start, end, name, note in spans]


def cli_trace(runner: CliRunner, seconds: float, tally: Tally) -> dict:
    """Each batch once traced and once untraced per cycle, in alternating
    order; counts come from the first cycle, times are medians over cycles."""
    passes, all_spans = [], []
    rate = {True: [0, 0], False: [0, 0]}  # traced -> [lines, ns inside main]
    checks_agree = True
    offset = invocation = cycles = 0
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycle_spans, cycle_lines = [], 0
        for k, batch in enumerate(runner.batches):
            for traced in ((False, True) if (cycles + k) % 2 else (True, False)):
                _, noted = runner.invoke(k, traced, tally)
                rate[traced][0] += len(batch.lines)
                rate[traced][1] += noted["ended_ns"] - noted["started_ns"]
                if not traced:
                    continue
                invocation += 1
                spans = _renumber(noted.get("spans", []), offset, invocation)
                offset += len(spans) + 1
                checks = sum(1 for s in spans if s[5] == "core.check_field")
                checks_agree &= checks == noted.get("field_checks")
                cycle_spans += spans
            cycle_lines += len(batch.lines)
        passes.append(pass_metrics(cycle_spans, cycle_lines))
        all_spans += cycle_spans
        cycles += 1
    write_spans(OUT / "spans-cli_batch.tsv", all_spans)
    overhead = (rate[True][0] / rate[True][1]) / (rate[False][0] / rate[False][1])
    return {"per_layer": per_layer(passes, registry_builds(all_spans), overhead),
            "passes": len(passes), "field_checks_agree": checks_agree}


# ------------------------------------------------------------------- report

def run_workload(workload: str, seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    env = _env()
    if workload == "cli_batch":
        types = scratch / "types"
        types.mkdir(exist_ok=True)
        (types / "slug.def").write_text(f"Slug\n{gen.SLUG_PATTERN}\n", encoding="utf-8")
        env = _env(STRTYPE_TYPES=str(types))
    tally = Tally()
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance(seed)}
    if trace:
        if workload == "cli_batch":
            report = cli_trace(CliRunner(seed, scratch, env), seconds, tally)
        else:
            report = library_workload(workload, seed, seconds, trace)
            tally.absorb(report["tally"])
        layers = report["per_layer"]
        result["metrics"] = {name: {"value": layers[name], "unit": unit,
                                    "n": 1 if is_count else report["passes"]}
                             for name, unit, is_count in PER_LAYER}
        result["cross_checks"] = {
            "field_checks equals check_field spans": report["field_checks_agree"],
            "patterns.calls is 0 on expr_nesting":
                workload != "expr_nesting" or layers["patterns.calls"] == 0,
        }
        result["stress"] = _stress(layers)
    else:
        gauge = HostGauge()
        setup = setup_times(workload, gauge)
        cold = cold_starts(workload, seed, env, tally, gauge)
        if workload == "cli_batch":
            report = cli_measure(CliRunner(seed, scratch, env), seconds, tally, gauge)
        else:
            report = library_workload(workload, seed, seconds, trace)
            gauge.add("work", NOMINAL_WALK_S, report["references_s"])
            tally.absorb(report["tally"])
        latency, f = report["latency"], gauge.factor("work")
        raw = {"setup_s": statistics.median(setup), "items_per_s": report["items"] / report["timed_s"],
               "item_p50_us": latency["p50_us"], "item_p99_us": latency["p99_us"],
               "cold_start_ms": statistics.median(cold) * 1e3}
        result["metrics"] = {
            "setup_s": {"value": raw["setup_s"] * gauge.factor("setup"), "unit": "s",
                        "n": len(setup)},
            "items_per_s": {"value": raw["items_per_s"] / f, "unit": "1/s",
                            "n": report["items"]},
            "item_p50_us": {"value": raw["item_p50_us"] * f, "unit": "us", "n": latency["n"]},
            "item_p99_us": {"value": raw["item_p99_us"] * f, "unit": "us", "n": latency["n"],
                            "beyond": latency["beyond_p99"]},
            "cold_start_ms": {"value": raw["cold_start_ms"] * gauge.factor("cold"), "unit": "ms",
                              "n": len(cold)},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB",
                            "n": report.get("rss_children", 1)},
        }
        for name, value in raw.items():
            result["metrics"][name]["raw"] = value
        result["host"] = gauge.as_dict()
        result["cross_checks"] = {}
    counts = tally.as_dict()
    counts["failed_ratio"] = counts["failed"] / max(1, counts["attempted"])
    counts["shares"] = {name: count / max(1, counts["attempted"])
                        for name, count in counts.pop("flags").items()}
    result["checks"] = counts
    result["correct"] = counts["unexplained"] == 0 and all(result["cross_checks"].values())
    return result


def _stress(layers: dict) -> dict:
    """What the traced run says about the layers each workload was chosen to load."""
    self_s = sum(v for k, v in layers.items() if k.endswith("self_s"))
    out = {name: layers[name] for name in
           ("patterns.calls", "ops.calls", "core.narrow.calls", "cli.invocations")}
    out["patterns share of self time"] = layers["patterns.self_s"] / self_s if self_s else 0.0
    return out


def print_report(result: dict) -> None:
    p = result["provenance"]
    print(f"strtype bench: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']}")
    print(f"  machine: {p['cpus']} cpus, {p['cpu_model']}, Python {p['python']} "
          f"({p['executable']}), commit {p['commit'] or 'unknown'}, "
          f"src sha256 {p['src_sha256']}")
    if "host" in result:
        print("  host speed, reference median (nominal) per phase: " + ", ".join(
            f"{phase} {h['median_ms']:.3f} ms ({h['nominal_ms']:g} ms, n={h['n']})"
            for phase, h in result["host"].items()))
        print("  times are scaled to the nominal reference; raw figures in brackets")
    for name, m in result["metrics"].items():
        extra = f" [raw {m['raw']:.6g}]" if "raw" in m else ""
        extra += f" ({m['beyond']} beyond)" if "beyond" in m else ""
        print(f"  {name:28} {m['value']:>16.6g} {m['unit']:8} n={m['n']}{extra}")
    c = result["checks"]
    print(f"  {'failed_ratio':28} {c['failed_ratio']:>16.6g} {'ratio':8} n={c['attempted']} "
          f"(failed {c['failed']}, unexplained {c['unexplained']}; "
          f"{c['checks']} checks of {c['attempted']} distinct items)")
    for name, count in sorted(c["by_defect"].items()):
        print(f"    known defect {name}: {count} ({gen.DEFECTS[name]})")
    print("  shares: " + ", ".join(f"{k} {v:.4f}" for k, v in c["shares"].items()))
    for example in c["examples"]:
        print(f"  unexplained failure: {example}")
    for name, ok in result["cross_checks"].items():
        print(f"  cross-check {name}: {'ok' if ok else 'MISMATCH'}")
    for name, value in result.get("stress", {}).items():
        print(f"  stress {name}: {value:.6g}")
    print(f"  oracle check: {'ok' if result['correct'] else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "strtype" / "__init__.py").is_file():
        print(f"error: no strtype package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the finally below removes the scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    correct = True
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(workload, args.seed, args.seconds, args.trace, scratch)
            name = f"{workload}-trace{args.trace}-seed{args.seed}.json"
            (OUT / name).write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
            print_report(result)
            print(json.dumps({
                "correct": result["correct"], "attempted": result["checks"]["attempted"],
                "failed": result["checks"]["failed"],
                "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                            for k, m in result["metrics"].items()}}))
            sys.stdout.flush()
            correct &= result["correct"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
