"""Run the strtype command line once, as its console script does, and note
when each output record is written.

    python3 cli_child.py TRACE REPORT_PATH CLI_ARG...

stdout passes through unchanged; a thin wrapper only notes the clock each
time a record's newline is written, so the gap between two records is the
time the CLI spent on the second line. With TRACE 1 the layer entry points
are wrapped in spans as well. The notes, the spans, the field-check counter
and the peak memory go to REPORT_PATH as JSON when the CLI returns. An
exception out of the CLI still propagates, so the exit status and the
traceback are the ones a user would see.
"""

import json
import resource
import sys
import time


class _Stamped:
    def __init__(self, real, stamps):
        self._real = real
        self._stamps = stamps

    def write(self, text):
        written = self._real.write(text)
        if text.endswith("\n"):
            self._stamps.append(time.perf_counter_ns())
        return written

    def __getattr__(self, name):
        return getattr(self._real, name)


def main() -> None:
    trace, report_path, *argv = sys.argv[1:]
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import strtype
    import strtype.cli

    stamps: list[int] = []
    sys.stdout = _Stamped(sys.stdout, stamps)
    report = {"started_ns": time.perf_counter_ns()}
    code = 1
    try:
        code = strtype.cli.main(argv)
    except BaseException as exc:
        report["raised"] = type(exc).__name__
        raise
    finally:
        report["ended_ns"] = time.perf_counter_ns()
        sys.stdout.flush()
        report.update(stamps=stamps, field_checks=strtype.field_checks(),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            report["spans"] = tracer.spans
        with open(report_path, "w", encoding="utf-8") as out:
            json.dump(report, out)
    sys.exit(code)


if __name__ == "__main__":
    main()
