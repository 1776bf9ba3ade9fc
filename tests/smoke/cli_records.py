"""Records keep non-ASCII and U+2028 as they are, byte for byte, a label
holding '"' is escaped, narrowing adds checks or the failed field, and
an argument that is not UTF-8 is a configuration error.

Standard library only; run from the repository root as
``PYTHONPATH=src python -W error tests/smoke/cli_records.py``.
"""

import json, os, subprocess, sys
env = dict(os.environ, PYTHONIOENCODING="utf-8")
cli = [sys.executable, "-W", "error", "-m", "strtype.cli"]
done = subprocess.run(cli + ["extract", "--type", "InnerR", "caf\u00e9 r\u2028x"],
                      capture_output=True, env=env, check=True)
want = ('{"input": "caf\u00e9 r\u2028x", "type": "InnerR", "ok": true, '
        '"normalized": "caf\u00e9 r\u2028x", '
        '"fields": {"left": "caf\u00e9 ", "right": "\u2028x"}}\n')
assert done.stdout == want.encode("utf-8"), done.stdout
for argv, code, want in [
        (["validate", "--type", "Email", "a@b"], 1,
         '{"input": "a@b", "type": "Email", "ok": false, '
         '"error": {"pos": 3, "expected": "\\".\\""}}\n'),
        (["narrow", "--from", "Email", "--to", "Gmail", "a@gmail.com"], 0,
         '{"input": "a@gmail.com", "from": "Email", "to": "Gmail", "ok": true, '
         '"normalized": "a@gmail.com", "checks": 1}\n'),
        (["narrow", "--from", "Email", "--to", "Gmail", "a@yahoo.com"], 1,
         '{"input": "a@yahoo.com", "from": "Email", "to": "Gmail", "ok": false, '
         '"error": {"pos": 2, "expected": "\\"gmail\\"", "field": "domain_left"}}\n')]:
    done = subprocess.run(cli + argv, capture_output=True, env=env)
    assert (done.returncode, done.stdout) == (code, want.encode("utf-8")), done
done = subprocess.run(cli + ["validate", "--type", "Sanitised", b"ab\xffc"],
                      capture_output=True, env=env)
assert done.returncode == 2 and done.stdout == b"", done
# Arguments as argparse read them: --opt=value and a unique prefix,
# an ambiguous prefix a usage error, "--" ending the options, and a
# "-..." input with a space; help on stdout, usage errors on stderr.
def run(*argv):
    return subprocess.run(cli + list(argv), capture_output=True, env=env)
done = run("validate", "--type=Email", "a@b.c")
assert done.stdout == run("validate", "--ty", "Email", "a@b.c").stdout != b"", done
assert run("narrow", "--f", "X").returncode == 2
for argv, want in [(["--", "-x"], "-x"), (["-a b"], "-a b")]:
    done = run("validate", "--type", "Sanitised", *argv)
    assert json.loads(done.stdout)["input"] == want, done
done = run("validate", "x")
assert done.returncode == 2 and done.stdout == b"" and b"error:" in done.stderr, done
for argv in [["--help"], ["narrow", "--help"], ["validate", "-hh"]]:
    done = run(*argv)
    assert done.returncode == 0 and done.stdout.startswith(b"usage: strtype"), done
