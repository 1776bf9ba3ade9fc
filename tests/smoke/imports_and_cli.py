"""Import every module, parse one input of a few types and list the types.
The CLI encodes records with _json alone and reads its arguments itself:
importing it loads no json, argparse, gettext or pathlib, which is checked
first, before anything else imports strtype.

Standard library only; run from the repository root as
``PYTHONPATH=src python -W error tests/smoke/imports_and_cli.py``.
"""

import sys

names = {'json', 'argparse', 'gettext', 'pathlib'}
had = names & set(sys.modules)
import strtype.cli
assert names & set(sys.modules) == had

import subprocess

import strtype.ops
from strtype.builtins import build_registry
from strtype.core import Ok

reg = build_registry()
for name, raw in [('EqualAandB', 'aabb'), ('Expr', '(3*4)+5'),
                  ('Gmail', 'foo@gmail.com'), ('HomeDotFile', '/home/.vimrc')]:
    assert isinstance(reg.from_raw(name, raw), Ok), (name, raw)
subprocess.run([sys.executable, "-W", "error", "-m", "strtype.cli", "list-types"], check=True)
