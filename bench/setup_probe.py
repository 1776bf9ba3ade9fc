"""Time importing strtype and building the registry one workload uses.

    python3 setup_probe.py WORKLOAD SLUG_PATTERN

Run in a fresh process; prints the seconds taken. Nothing but ``sys`` and
``time`` is imported before the clock starts, so the modules strtype pulls
in are paid for as a user's first import pays for them.
"""

import sys
import time


def setup_registry(workload: str, slug_pattern: str):
    """Import strtype and build the registry ``workload`` uses: on cli_batch
    the CLI module too, and on cli_batch and long_tokens the definition type."""
    import strtype
    if workload == "cli_batch":
        import strtype.cli  # noqa: F401
    registry = strtype.build_registry()
    if workload in ("long_tokens", "cli_batch"):
        registry.register(strtype.opaque_type("Slug", slug_pattern))
    registry.freeze()
    return registry


if __name__ == "__main__":
    started = time.perf_counter()
    setup_registry(sys.argv[1], sys.argv[2])
    print(time.perf_counter() - started)
