"""Each standard-library-only script under ``tests/smoke`` passes, run as CI
runs it on every supported Python: a fresh interpreter, every warning an
error, and ``PYTHONPATH`` set to ``src``."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "tests" / "smoke").glob("*.py"))


def test_there_are_smoke_scripts():
    assert len(SCRIPTS) >= 8, SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_smoke_script_passes(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error", str(script)],
                          capture_output=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
