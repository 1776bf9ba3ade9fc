import argparse
import collections
import contextlib
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from generators import accepted_strings
import strtype
from strtype import cli
from strtype.cli import _INPUT_COMMANDS, _cmd_list_types, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(stdout):
    # Records end at "\n"; a record's strings may hold U+2028 unescaped.
    return [json.loads(line) for line in stdout.split("\n") if line]


def cli_without_json_accelerator(monkeypatch):
    """A fresh copy of ``strtype.cli`` loaded as if ``_json`` were missing:
    ``json`` is imported afresh under it, with no C parts."""
    monkeypatch.setitem(sys.modules, "_json", None)
    for name in ("json", "json.decoder", "json.encoder", "json.scanner"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.find_spec("strtype.cli")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidate:
    def test_accepting_record(self, capsys):
        code, out, err = run_cli(
            capsys, "validate", "#1a2b3c", "--type", "CssColour")
        assert code == 0
        assert err == ""
        assert records(out) == [{"input": "#1a2b3c", "type": "CssColour",
                                 "ok": True, "normalized": "#1a2b3c"}]

    def test_rejecting_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "#F65T00", "--type", "CssColour")
        assert code == 1
        assert records(out) == [{
            "input": "#F65T00", "type": "CssColour", "ok": False,
            "error": {"pos": 4, "expected": "end of input"}}]

    def test_error_position_matches_library(self, capsys):
        from strtype import from_raw
        _, out, _ = run_cli(capsys, "validate", "#zz", "--type", "CssColour")
        parse = from_raw("CssColour", "#zz").error.parse
        assert records(out)[0]["error"] == {"pos": parse.pos,
                                            "expected": parse.expected}

    def test_mixed_inputs_keep_all_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "#fff", "nope", "#000000",
            "--type", "CssColour")
        assert code == 1
        got = records(out)
        assert [r["ok"] for r in got] == [True, False, True]

    def test_key_order_is_stable(self, capsys):
        _, out, _ = run_cli(capsys, "validate", "#fff", "--type", "CssColour")
        assert list(records(out)[0]) == ["input", "type", "ok", "normalized"]
        _, out, _ = run_cli(capsys, "validate", "#f", "--type", "CssColour")
        assert list(records(out)[0]) == ["input", "type", "ok", "error"]

    def test_unknown_type_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "validate", "x", "--type", "NoSuch")
        assert code == 2
        assert out == ""
        assert "unknown type" in err

    def test_an_option_value_after_equals_is_kept_as_written(self, capsys):
        # argparse before 3.13 read "--type=--" as an empty list, and the
        # registry lookup raised TypeError on it.
        code, out, err = run_cli(capsys, "validate", "x", "--type=--")
        assert (code, out) == (2, "") and "unknown type '--'" in err

    def test_human_prints_ok_per_accepted_input(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--human", "#fff", "#1a2b3c",
                               "--type", "CssColour")
        assert code == 0
        assert out == "ok\nok\n"

    def test_missing_type_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as caught:
            main(["validate", "x"])
        assert caught.value.code == 2


class TestInputSources:
    def test_file_input(self, capsys, tmp_path):
        source = tmp_path / "inputs.txt"
        source.write_text("#111\n#222\n#333\n")
        code, out, _ = run_cli(
            capsys, "validate", "--file", str(source), "--type", "CssColour")
        assert code == 0
        assert len(records(out)) == 3

    def test_arguments_beat_file(self, capsys, tmp_path):
        source = tmp_path / "inputs.txt"
        source.write_text("#111\n#222\n")
        _, out, _ = run_cli(capsys, "validate", "#abc",
                            "--file", str(source), "--type", "CssColour")
        assert [r["input"] for r in records(out)] == ["#abc"]

    def test_stdin_fallback(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("#111\n#zzz\n"))
        code, out, _ = run_cli(capsys, "validate", "--type", "CssColour")
        assert code == 1
        assert [r["ok"] for r in records(out)] == [True, False]

    def test_empty_stdin_is_fine(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, out, _ = run_cli(capsys, "validate", "--type", "CssColour")
        assert code == 0
        assert out == ""

    def test_unreadable_file_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", "--file",
                               str(tmp_path / "missing.txt"),
                               "--type", "CssColour")
        assert code == 2
        assert "cannot read" in err

    # U+2028, \x0b and \x1c end a line for str.splitlines but are data
    # here: InnerR's right field takes any character.
    def test_file_lines_end_at_newline_only(self, capsys, tmp_path):
        source = tmp_path / "inputs.txt"
        source.write_bytes("ar\u2028b\x0bc\x1c\r\nxr\r\r\n\nr".encode())
        code, out, _ = run_cli(
            capsys, "validate", "--file", str(source), "--type", "InnerR")
        assert [r["input"] for r in records(out)] == [
            "ar\u2028b\x0bc\x1c", "xr\r", "", "r"]
        assert code == 1  # the empty line has no "r"

    def test_stdin_lines_end_at_newline_only(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("ar\u2028b\nxr\r\n"))
        code, out, _ = run_cli(capsys, "validate", "--type", "InnerR")
        assert code == 0
        assert [r["input"] for r in records(out)] == ["ar\u2028b", "xr"]

    def test_undecodable_file_is_config_error(self, capsys, tmp_path):
        source = tmp_path / "inputs.txt"
        source.write_bytes(b"#111\n\xff\xfe bad\n#222\n")
        code, out, err = run_cli(
            capsys, "validate", "--file", str(source), "--type", "CssColour")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {source}: ")
        assert "Traceback" not in err

    def test_undecodable_stdin_is_config_error(self, capsys, monkeypatch):
        # The error handler a C locale gives stdin, which lets bytes through.
        stream = io.TextIOWrapper(io.BytesIO(b"#111\n\xff\n"), encoding="utf-8",
                                  errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stream)
        code, out, err = run_cli(capsys, "validate", "--type", "CssColour")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read stdin: ")

    @pytest.mark.parametrize("human", [[], ["--human"]])
    def test_undecodable_argument_is_config_error(self, capsys, monkeypatch, human):
        # Python decodes argv with surrogateescape: so b"ab\xffc" arrives.
        raw = b"ab\xffc".decode("utf-8", "surrogateescape")
        stdout = io.StringIO()  # takes any text, so only the status can tell
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["validate", "--type", "Sanitised", *human, "#fff", raw])
        assert code == 2
        assert stdout.getvalue() == ""
        assert capsys.readouterr().err.startswith("error: cannot read argument 2: ")


class TestNormalize:
    def test_canonical_form(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "(3*4)+5", "--type", "Expr")
        assert code == 0
        assert records(out)[0]["normalized"] == "3 * 4 + 5"

    def test_idempotent(self, capsys):
        cases = [("USPhone", "555.211.1234"), ("USPhone", "5552111234"),
                 ("CssColour", "#1A2B3C"), ("Expr", "(3*4)+5"),
                 ("CssUnit", "007px"), ("Email", "a@b-c.co.uk")]
        for type_name, raw in cases:
            _, out, _ = run_cli(capsys, "normalize", raw, "--type", type_name)
            first = records(out)[0]["normalized"]
            _, out, _ = run_cli(capsys, "normalize", first, "--type", type_name)
            assert records(out)[0]["normalized"] == first

    def test_a_number_beyond_a_float_is_a_rejection_record(self, capsys):
        raw = "1" * 400 + "px"
        code, out, err = run_cli(capsys, "normalize", raw, "--type", "CssUnit")
        assert (code, err) == (1, "")
        assert records(out) == [{
            "input": raw, "type": "CssUnit", "ok": False,
            "error": {"pos": 0, "expected": 'a finite number or "auto"'}}]

    def test_long_and_deep_exprs_from_a_file(self, capsys, tmp_path):
        flat = "+".join(["1"] * 20_000)
        deep = "1+(" * 3000 + "1" + ")" * 3000
        source = tmp_path / "exprs.txt"
        source.write_text(f"{flat}\n{deep}\n")
        code, out, err = run_cli(capsys, "normalize", "--file", str(source),
                                 "--type", "Expr")
        assert (code, err) == (0, "")
        first, second = records(out)
        assert first["normalized"] == " + ".join(["1"] * 20_000)
        assert second["normalized"] == "1 + (" * 2999 + "1 + 1" + ")" * 2999

    def test_human_prints_plain_strings(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "--human",
                               "555.211.1234", "--type", "USPhone")
        assert code == 0
        assert out == "555-211-1234\n"


class TestExtract:
    def test_single_field(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "foo@gmail.com",
                               "--type", "Email", "--field", "name")
        assert code == 0
        record = records(out)[0]
        assert record["field"] == "name"
        assert record["value"] == "foo"

    def test_all_fields(self, capsys):
        _, out, _ = run_cli(capsys, "extract", "/home/user/notes.txt",
                            "--type", "FilePath")
        assert records(out)[0]["fields"] == {
            "absolute": True, "dirs": ["home", "user"],
            "file_name": "notes", "ext": "txt", "separator": "/"}

    def test_missing_extension_is_null(self, capsys):
        _, out, _ = run_cli(capsys, "extract", "notes",
                            "--type", "FilePath", "--field", "ext")
        assert records(out)[0]["value"] is None

    def test_fieldless_type(self, capsys):
        _, out, _ = run_cli(capsys, "extract", "3 + 4", "--type", "Expr")
        assert records(out)[0]["fields"] == {}

    def test_unknown_field_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "extract", "a@b.c",
                                 "--type", "Email", "--field", "domain")
        assert code == 2
        assert out == ""
        assert "no field" in err

    def test_parse_failure_still_reports(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "not-an-email",
                               "--type", "Email", "--field", "name")
        assert code == 1
        assert records(out)[0]["ok"] is False

    def test_human_single_field(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "--human", "foo@gmail.com",
                               "/x", "--type", "Email", "--field", "name")
        assert code == 1
        assert out.splitlines()[0] == "foo"

    def test_human_all_fields(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "--human",
                               "/home/user/notes.txt", "--type", "FilePath")
        assert code == 0
        assert out == ("absolute=True, dirs=['home', 'user'], "
                       "file_name='notes', ext='txt', separator='/'\n")

    def test_human_fieldless_type(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "--human", "3 + 4",
                               "--type", "Expr")
        assert code == 0
        assert out == "(no fields)\n"

    def test_every_builtin_field_is_a_json_value(self):
        # A field of any other type reaches the JSON encoder as it is and
        # raises there; no field is written as its str().
        reg = strtype.build_registry()
        for name in reg.names():
            fields = reg.get(name).fields
            for raw in accepted_strings(name, 8):
                structure = reg.from_raw(name, raw).value.structure
                for field in fields:
                    value = getattr(structure, field)
                    items = value if isinstance(value, tuple) else (value,)
                    assert all(v is None or type(v) in (str, int, float, bool)
                               for v in items), (name, raw, field, value)


class TestEq:
    def test_weak_equality(self, capsys):
        code, out, _ = run_cli(capsys, "eq", "555.211.1234", "555-2111234",
                               "--type", "USPhone", "--mode", "weak")
        assert code == 0
        assert records(out)[0]["equal"] is True

    def test_raw_mode_sees_spelling(self, capsys):
        _, out, _ = run_cli(capsys, "eq", "#111", "#111111",
                            "--type", "CssColour", "--mode", "raw")
        assert records(out)[0]["equal"] is False

    def test_strict_mode_ignores_spelling(self, capsys):
        code, out, _ = run_cli(capsys, "eq", "#111", "#111111",
                               "--type", "CssColour")
        assert code == 0
        record = records(out)[0]
        assert record["mode"] == "strict"
        assert record["equal"] is True

    def test_unequal_values_still_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eq", "#111", "#222",
                               "--type", "CssColour")
        assert code == 0
        assert records(out)[0]["equal"] is False

    def test_parse_failure_names_the_input(self, capsys):
        code, out, _ = run_cli(capsys, "eq", "#111", "nope",
                               "--type", "CssColour")
        assert code == 1
        record = records(out)[0]
        assert record["ok"] is False
        assert record["error"]["index"] == 1

    def test_human_answers(self, capsys):
        code, out, _ = run_cli(capsys, "eq", "--human", "#111", "#111111",
                               "--type", "CssColour")
        assert (code, out) == (0, "strict: equal\n")
        code, out, _ = run_cli(capsys, "eq", "--human", "#111", "#111111",
                               "--type", "CssColour", "--mode", "raw")
        assert (code, out) == (0, "raw: not equal\n")

    def test_strict_mode_on_deeply_nested_exprs(self, capsys):
        deep = "1+(" * 3000 + "1" + ")" * 3000
        code, out, err = run_cli(capsys, "eq", deep, deep, "--type", "Expr",
                                 "--mode", "strict")
        assert (code, err) == (0, "")
        record = records(out)[0]
        assert (record["ok"], record["mode"], record["equal"]) == (True, "strict", True)

    def test_weak_mode_on_long_and_deep_exprs(self, capsys):
        for raw in ("+".join(["1"] * 20_000), "1+(" * 3000 + "1" + ")" * 3000):
            code, out, err = run_cli(capsys, "eq", raw, raw, "--type", "Expr",
                                     "--mode", "weak")
            assert (code, err) == (0, "")
            record = records(out)[0]
            assert (record["ok"], record["mode"], record["equal"]) == (True, "weak", True)

    def test_wrong_arity_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "eq", "#111", "--type", "CssColour")
        assert code == 2
        assert "exactly two" in err


class TestNarrow:
    def test_narrows_with_field_checks(self, capsys):
        code, out, _ = run_cli(capsys, "narrow", "/home/.bashrc",
                               "--from", "FilePath", "--to", "UnixPath")
        assert code == 0
        assert records(out)[0] == {
            "input": "/home/.bashrc", "from": "FilePath", "to": "UnixPath",
            "ok": True, "normalized": "/home/.bashrc", "checks": 1}

    def test_checks_walk_the_chain(self, capsys):
        _, out, _ = run_cli(capsys, "narrow", "/home/.bashrc",
                            "--from", "FilePath", "--to", "HomeDotFile")
        assert records(out)[0]["checks"] == 3

    def test_failure_reports_field_and_position(self, capsys):
        code, out, _ = run_cli(capsys, "narrow", "/etc/passwd",
                               "--from", "FilePath", "--to", "HomeDotFile")
        assert code == 1
        assert records(out)[0]["error"] == {
            "pos": 1, "expected": '"home"', "field": "dirs"}

    def test_source_rejection_has_no_field(self, capsys):
        code, out, _ = run_cli(capsys, "narrow", "nope",
                               "--from", "Email", "--to", "Gmail")
        assert code == 1
        assert records(out) == [{
            "input": "nope", "from": "Email", "to": "Gmail", "ok": False,
            "error": {"pos": 4, "expected": '"@"'}}]

    def test_human_success(self, capsys):
        code, out, _ = run_cli(capsys, "narrow", "--human", "/home/.bashrc",
                               "--from", "FilePath", "--to", "UnixPath")
        assert (code, out) == (0, "UnixPath: ok (1 field checks)\n")

    def test_human_failure_names_the_field(self, capsys):
        code, out, _ = run_cli(capsys, "narrow", "--human", "/etc/passwd",
                               "--from", "FilePath", "--to", "HomeDotFile")
        assert code == 1
        assert out.splitlines() == [
            "/etc/passwd", " ^", 'expected "home" at position 1',
            "field dirs failed"]

    def test_unrelated_types_are_config_errors(self, capsys):
        code, _, err = run_cli(capsys, "narrow", "/x",
                               "--from", "UnixPath", "--to", "WindowsPath")
        assert code == 2
        assert "not a subtype" in err

    def test_widening_direction_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, "narrow", "a@gmail.com",
                               "--from", "Gmail", "--to", "Email")
        assert code == 2
        assert "not a subtype" in err

    def test_unknown_subtype_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "narrow", "/x",
                               "--from", "FilePath", "--to", "NoSuch")
        assert code == 2
        assert "unknown type" in err


class TestListTypes:
    def test_every_builtin_is_listed(self, capsys):
        from strtype import default_registry
        code, out, _ = run_cli(capsys, "list-types")
        assert code == 0
        names = [r["type"] for r in records(out)]
        assert names == default_registry().names()

    def test_subtype_record(self, capsys):
        _, out, _ = run_cli(capsys, "list-types")
        by_name = {r["type"]: r for r in records(out)}
        assert by_name["Gmail"] == {
            "type": "Gmail", "parent": "Email",
            "overrides": ["domain_left"],
            "fields": ["name", "domain_left", "domain_right"]}
        assert by_name["CssColour"]["parent"] is None

    def test_human_lines(self, capsys):
        _, out, _ = run_cli(capsys, "list-types", "--human")
        lines = out.splitlines()
        assert ("Gmail parent=Email overrides=[domain_left] "
                "fields=[name, domain_left, domain_right]") in lines
        assert "CssColour fields=[red, green, blue]" in lines


class TestHumanErrors:
    def test_caret_sits_under_the_failure(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--human",
                               "#F65T00", "--type", "CssColour")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "#F65T00"
        assert lines[1] == "    ^"
        assert "position 4" in lines[2]

    def test_eq_prefix_keeps_caret_aligned(self, capsys):
        _, out, _ = run_cli(capsys, "eq", "--human", "#111", "#zzz",
                            "--type", "CssColour")
        lines = out.splitlines()
        assert lines[0] == "input 1: #zzz"
        assert lines[1].index("^") == len("input 1: ") + 1


class TestExtraTypes:
    def test_directory_of_definitions(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "hex8.def").write_text("Hex8\n[0-9a-f]{8}\n")
        monkeypatch.setenv("STRTYPE_TYPES", str(tmp_path))
        code, out, _ = run_cli(capsys, "validate", "deadbeef",
                               "--type", "Hex8")
        assert code == 0
        assert records(out)[0]["normalized"] == "deadbeef"
        _, out, _ = run_cli(capsys, "list-types")
        assert "Hex8" in [r["type"] for r in records(out)]

    def test_dotfiles_and_subdirectories_are_skipped(self, capsys, tmp_path, monkeypatch):
        # Either would be a config error if it were read as a definition.
        (tmp_path / ".hidden.def").write_text("Bad\n[unclosed\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "word.def").write_text("Word\n[a-z]+\n")
        monkeypatch.setenv("STRTYPE_TYPES", str(tmp_path))
        code, out, _ = run_cli(capsys, "list-types")
        assert code == 0
        assert "Word" in [r["type"] for r in records(out)]

    def test_bad_pattern_is_config_error(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "bad.def").write_text("Bad\n[unclosed\n")
        monkeypatch.setenv("STRTYPE_TYPES", str(tmp_path))
        code, _, err = run_cli(capsys, "list-types")
        assert code == 2
        assert "bad.def" in err

    def test_undecodable_file_is_config_error(self, capsys, tmp_path,
                                              monkeypatch):
        (tmp_path / "bad.def").write_bytes(b"Bad\n[a-z]\xff+\n")
        monkeypatch.setenv("STRTYPE_TYPES", str(tmp_path))
        code, out, err = run_cli(capsys, "list-types")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read ") and "bad.def" in err

    def test_short_file_is_config_error(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "short.def").write_text("OnlyAName\n")
        monkeypatch.setenv("STRTYPE_TYPES", str(tmp_path))
        assert run_cli(capsys, "list-types")[0] == 2

    def test_builtin_collision_is_config_error(self, capsys, tmp_path,
                                               monkeypatch):
        (tmp_path / "clash.def").write_text("CssColour\n[a-z]+\n")
        monkeypatch.setenv("STRTYPE_TYPES", str(tmp_path))
        assert run_cli(capsys, "list-types")[0] == 2

    def test_reserved_name_is_config_error(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "string.def").write_text("string\n[a-z]+\n")
        monkeypatch.setenv("STRTYPE_TYPES", str(tmp_path))
        code, _, err = run_cli(capsys, "list-types")
        assert code == 2 and "reserved" in err

    def test_missing_directory_is_config_error(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("STRTYPE_TYPES", str(tmp_path / "nope"))
        assert run_cli(capsys, "list-types")[0] == 2


class TestInstalledModule:
    # The child imports the strtype under test, installed or not.
    ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(Path(strtype.__file__).parents[1]), os.environ.get("PYTHONPATH")))))

    def test_runs_as_a_module(self):
        done = subprocess.run(
            [sys.executable, "-m", "strtype.cli", "validate", "#fff",
             "--type", "CssColour"],
            capture_output=True, text=True, env=self.ENV)
        assert done.returncode == 0
        assert json.loads(done.stdout)["ok"] is True

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # 20,000 records overflow the pipe, so a write fails once it closes.
        source = tmp_path / "colours.txt"
        source.write_text("#1A2B3C\n" * 20000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "strtype.cli", "normalize",
             "--type", "CssColour", "--file", str(source)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV)
        assert json.loads(proc.stdout.readline())["normalized"] == "#1a2b3c"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""

    def test_undecodable_argument_exits_two(self):
        done = subprocess.run(
            [sys.executable, "-m", "strtype.cli", "validate", "--type", "Sanitised",
             b"ab\xffc"], capture_output=True, env=dict(self.ENV, PYTHONIOENCODING="utf-8"))
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: cannot read argument 1: ")


class _LoggedStdout:
    """A stdout that appends each write to a log it shares with the parses."""

    def __init__(self, log):
        self.log = log

    def write(self, text):
        self.log.append(("write", text))
        return len(text)

    def flush(self):
        pass


class TestStreaming:
    """Each record is written in one write as soon as its input is handled,
    encoded as ``json.dumps(record, ensure_ascii=False)`` encodes it."""

    INPUTS = ["caf\u00e9 r\u2028\"q\\", "\u2028\\r\"", "no pivot \u00e9\u2028\"\\", "r"]

    def expected(self, raw):
        result = strtype.from_raw("InnerR", raw)
        record = {"input": raw, "type": "InnerR"}
        if isinstance(result, strtype.Err):
            parse = result.error.parse
            record.update(ok=False, error={"pos": parse.pos, "expected": parse.expected})
        else:
            value = result.value
            record.update(ok=True, normalized=value.cast(), fields={
                "left": value.structure.left, "right": value.structure.right})
        return json.dumps(record, ensure_ascii=False) + "\n"

    def run_logged(self, monkeypatch, argv):
        """Run ``extract --type InnerR`` on ``argv``; log each parse and write."""
        log = []
        from_raw = strtype.TypeRegistry.from_raw

        def logged_from_raw(reg, type_name, raw):
            log.append(("parse", raw))
            return from_raw(reg, type_name, raw)

        monkeypatch.setattr(strtype.TypeRegistry, "from_raw", logged_from_raw)
        monkeypatch.setattr(sys, "stdout", _LoggedStdout(log))
        code = main(["extract", "--type", "InnerR", *argv])
        return code, log

    def check(self, monkeypatch, argv):
        want = []
        for raw in self.INPUTS:
            want += [("parse", raw), ("write", self.expected(raw))]
        code, log = self.run_logged(monkeypatch, argv)
        assert code == 1  # one input has no "r"
        assert log == want
        assert all(text.endswith("\n") for kind, text in log if kind == "write")

    def test_arguments(self, monkeypatch):
        self.check(monkeypatch, self.INPUTS)

    def test_file(self, monkeypatch, tmp_path):
        source = tmp_path / "inputs.txt"
        source.write_bytes("".join(raw + "\n" for raw in self.INPUTS).encode("utf-8"))
        self.check(monkeypatch, ["--file", str(source)])

    VALUES = [0.1, 1.5e-05, 1e16, 12.5, -2.0, 0, -7, 2 ** 70, None, True, False,
              [1, [2.5, None], {"k": ["\u00e9", False]}], {"a": {"b": [True, "\u2028"]}},
              "\u00e9", "\u2028", '"', "\\", 'caf\u00e9 "q" \\ \u2028\n']
    RECORDS = ([{"input": "x", "value": value} for value in VALUES]
               + [{f"k{i}": value for i, value in enumerate(VALUES)}, {}])

    def test_emit_writes_what_json_dumps_gives(self, capsys, monkeypatch):
        from strtype import cli
        for emit in (cli._emit, cli_without_json_accelerator(monkeypatch)._emit):
            for record in self.RECORDS:
                emit(record)
                assert capsys.readouterr().out == json.dumps(record, ensure_ascii=False) + "\n"

    def test_emit_rejects_what_json_dumps_rejects(self, monkeypatch):
        from strtype import cli
        for record in ({"x": {1}}, {"x": [object()]}, {"x": b"a"}):
            with pytest.raises(TypeError) as want:
                json.dumps(record, ensure_ascii=False)
            for emit in (cli._emit, cli_without_json_accelerator(monkeypatch)._emit):
                with pytest.raises(TypeError) as got:
                    emit(record)
                assert str(got.value) == str(want.value)

    def test_without_json_accelerator_emit_uses_the_encoder(self, monkeypatch):
        module = cli_without_json_accelerator(monkeypatch)
        encoder = module._encode.__self__
        assert module.json.encoder.c_make_encoder is None
        assert type(encoder) is module.json.JSONEncoder
        assert module._encode.__func__ is module.json.JSONEncoder.encode
        assert vars(encoder) == vars(module.json.JSONEncoder(ensure_ascii=False))
        assert not hasattr(module, "_chunks")
        assert module.encode_basestring is module.json.encoder.py_encode_basestring

    def test_strings_are_encoded_by_the_encoders_own_function(self):
        from strtype import cli
        assert cli.encode_basestring is json.encoder.c_encode_basestring


_ODD = ['"', "\\", "\u2028", "\u2029", "\x01", "\x1f", "\x7f", "\u00e9", "\U0001f600"]
_REG = strtype.build_registry()


class TestRecordWriter:
    """Every record is the line ``json.dumps(record, ensure_ascii=False)``
    gives for the record built as a dict: ``input``, the command's head,
    ``ok``, ``normalized``, the command's own members, and an ``error``
    holding ``pos``, ``expected`` and the error's own members. Checked with
    ``_json`` and with the module copy that loads without it."""

    TEXTS = ["", "r", "x", *_ODD, *(f"{c}r{c}" for c in _ODD)]
    PATHS = ["/home/user/notes.txt", "a\\b\\c.txt", "notes", "/", "", "a/",
             *(f"/h{c}/x{c}.t" for c in _ODD), *_ODD]
    UNITS = ["100000000000000000000px", "0.000015px", "auto", "12px", "1e20px", *_ODD]
    EMAILS = ["a@gmail.com", "a@yahoo.com", "a@gmailx.com", 'a"b@c.d', "", *_ODD]
    RUNS = [
        (("validate", "--type", "InnerR"), TEXTS),
        (("normalize", "--type", "CssUnit"), UNITS),
        (("extract", "--type", "InnerR"), TEXTS),
        (("extract", "--type", "FilePath"), PATHS),
        (("extract", "--type", "CssUnit"), UNITS),
        (("extract", "--type", "CssUnit", "--field", "value"), UNITS),
        (("extract", "--type", "FilePath", "--field", "dirs"), PATHS),
        (("narrow", "--from", "Email", "--to", "Gmail"), EMAILS),
        (("narrow", "--from", "FilePath", "--to", "WindowsPath"), PATHS),
        (("narrow", "--from", "FilePath", "--to", "HomeDotFile"),
         ["/home/.x", "/home/x", "/etc/.x", *PATHS]),
    ]
    PAIRS = [("1px", "1.0px"), ("1px", "1px"), ("1px", "2px"), ("auto", "auto"),
             ('"', "1px"), ("1px", "\u2028"), ("", "")]

    @pytest.fixture(params=["_json", "no _json"])
    def cli_main(self, request, monkeypatch):
        if request.param == "_json":
            return main
        return cli_without_json_accelerator(monkeypatch).main

    @staticmethod
    def line(record):
        return json.dumps(record, ensure_ascii=False) + "\n"

    def expected(self, argv, raw):
        command, options = argv[0], dict(zip(argv[1::2], argv[2::2]))
        if command == "narrow":
            type_name, head = options["--from"], {"from": options["--from"],
                                                  "to": options["--to"]}
        else:
            type_name, head = options["--type"], {"type": options["--type"]}
            if "--field" in options:
                head["field"] = options["--field"]
        record = {"input": raw, **head}
        result = _REG.from_raw(type_name, raw)
        error = {}
        if command == "narrow" and isinstance(result, strtype.Ok):
            before = strtype.field_checks()
            result = result.value.narrow(options["--to"])
            checks = strtype.field_checks() - before
            error = {} if isinstance(result, strtype.Ok) else {"field": result.error.field}
        if isinstance(result, strtype.Err):
            parse = result.error.parse
            record.update(ok=False, error={"pos": parse.pos, "expected": parse.expected,
                                           **error})
            return self.line(record)
        value = result.value
        record.update(ok=True, normalized=value.cast())
        if command == "narrow":
            record["checks"] = checks
        elif command == "extract" and "--field" in options:
            record["value"] = getattr(value.structure, options["--field"])
        elif command == "extract":
            record["fields"] = {name: getattr(value.structure, name)
                                for name in _REG.get(type_name).fields}
        return self.line(record)

    @pytest.mark.parametrize("argv, inputs", RUNS, ids=[" ".join(a) for a, _ in RUNS])
    def test_per_input_commands(self, capsys, cli_main, argv, inputs):
        code = cli_main([*argv, *inputs])
        out = capsys.readouterr().out
        want = [self.expected(argv, raw) for raw in inputs]
        assert out == "".join(want)
        assert code == 1
        assert any('"ok": true' in line for line in want)

    @pytest.mark.parametrize("mode", ["raw", "weak", "strict"])
    def test_eq(self, capsys, cli_main, mode):
        for pair in self.PAIRS:
            code = cli_main(["eq", "--type", "CssUnit", "--mode", mode, *pair])
            record = {"input": list(pair), "type": "CssUnit", "mode": mode}
            values = [_REG.from_raw("CssUnit", raw) for raw in pair]
            bad = [i for i, result in enumerate(values) if isinstance(result, strtype.Err)]
            if bad:
                parse = values[bad[0]].error.parse
                record.update(ok=False, error={"pos": parse.pos, "expected": parse.expected,
                                               "index": bad[0]})
            else:
                equal = getattr(strtype.ParsedString, f"{mode}_eq")(*(v.value for v in values))
                record.update(ok=True, equal=equal)
            assert (code, capsys.readouterr().out) == (int(bool(bad)), self.line(record))

    def test_list_types(self, capsys, cli_main):
        assert cli_main(["list-types"]) == 0
        want = []
        for name in _REG.names():
            descriptor, parent = _REG.get(name), _REG.get(name).parent
            own = descriptor.checks[len(_REG.get(parent).checks):] if parent else ()
            want.append(self.line({"type": name, "parent": parent,
                                   "overrides": [field for field, _ in own],
                                   "fields": list(descriptor.fields)}))
        assert capsys.readouterr().out == "".join(want)


def _refuse(*args):
    raise AssertionError("a record was encoded under --human")


class TestHumanEncodesNothing:
    """Under --human no part of a JSON record is built: with the encoder's
    string function and the record encoder both refusing, every command
    prints the same lines, for accepted and rejected inputs alike."""

    RUNS = [
        (("validate", "--type", "Email", "a@b.c", "a@b"), 1,
         'ok\na@b\n   ^\nexpected "." at position 3\n'),
        (("normalize", "--type", "USPhone", "212.555.1234", "1"), 1,
         "212-555-1234\n1\n^\nexpected a valid area code at position 0\n"),
        (("extract", "--type", "Email", "a@b.c", "a@b"), 1,
         "name='a', domain_left='b', domain_right='c'\n"
         'a@b\n   ^\nexpected "." at position 3\n'),
        (("extract", "--type", "Email", "--field", "name", "a@b.c", "a@b"), 1,
         'a\na@b\n   ^\nexpected "." at position 3\n'),
        (("extract", "--type", "Expr", "1+2"), 0, "(no fields)\n"),
        (("narrow", "--from", "Email", "--to", "Gmail", "a@gmail.com", "a@yahoo.com", "a@b"), 1,
         "Gmail: ok (1 field checks)\n"
         'a@yahoo.com\n  ^\nexpected "gmail" at position 2\nfield domain_left failed\n'
         'a@b\n   ^\nexpected "." at position 3\n'),
        (("eq", "--type", "CssUnit", "1px", "1.0px"), 0, "strict: equal\n"),
        (("eq", "--type", "CssUnit", "1px", "x"), 1,
         'input 1: x\n         ^\nexpected a number or "auto" at position 0\n'),
    ]

    @pytest.mark.parametrize("argv, code, out", RUNS, ids=[" ".join(a) for a, _, _ in RUNS])
    def test_lines_are_unchanged(self, capsys, monkeypatch, argv, code, out):
        from strtype import cli
        monkeypatch.setattr(cli, "encode_basestring", _refuse)
        monkeypatch.setattr(cli, "_encode", _refuse)
        assert run_cli(capsys, *argv, "--human") == (code, out, "")


# ---------------------------------------------------------------- argv oracle

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


def _outcome(parse, argv):
    """("ok", fields) for an argv that ``parse`` accepts, else ("exit", status)."""
    try:
        return "ok", vars(parse(argv))
    except SystemExit as exc:
        return "exit", exc.code


class TestArgv:
    """``parse_args`` reads argv as the argparse parser it replaced reads it,
    except for two widenings: inputs may be split by options, and a "-..."
    argument with a space whose text before "=" names no option is an input."""

    COMMANDS = [name for name, *_ in _INPUT_COMMANDS] + ["list-types"]
    INPUTS = ["a", "", "-", "-5", "-1.5", "-x", "-a b", "--ty pe", "-hello world", "--x=y", "é"]
    FLAGS = ["--file", "--fi", "--f", "--human", "--hu", "--h", "--type", "--ty", "--t",
             "--field", "--fie", "--mode", "--mo", "--m", "--from", "--fr", "--to", "--x"]
    VALUES = INPUTS + ["T", "1", "raw", "weak", "strict", "bad"]
    REQUIRED = {"narrow": ["--from", "--to"], "list-types": []}

    @staticmethod
    def flags(command):
        own = {name: [flag for flag, _ in own] for name, _, _, *own in _INPUT_COMMANDS}
        return ["-h", "--help", "--human"] + (["--file"] + own[command] if command in own else [])

    def random_argv(self, rng):
        command = rng.choice(self.COMMANDS) if rng.random() < 0.95 else rng.choice(["nope", None])
        pieces = [[arg] for arg in rng.choices(self.INPUTS, k=rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):
            pieces.append(self.option(rng, rng.choice(self.FLAGS)))
        for flag in self.REQUIRED.get(command, ["--type"]):
            if rng.random() < 0.9:
                pieces.append(self.option(rng, flag))
        if rng.random() < 0.15:
            pieces.append(["--"])
        if rng.random() < 0.08:
            pieces.append([rng.choice(["-h", "--help", "--he"])])
        rng.shuffle(pieces)
        head = [rng.choice(["-h", "--x", "--human"])] if rng.random() < 0.03 else []
        return head + [command] * (command is not None) + [arg for piece in pieces for arg in piece]

    def option(self, rng, flag):
        values = ["raw", "weak", "strict", "bad", ""] if flag.startswith("--m") else self.VALUES
        form = rng.randrange(4)
        if form == 0:
            return [flag]  # a switch, or an option missing its value
        if form == 1:
            return [f"{flag}="]
        if form == 2:
            return [f"{flag}={rng.choice(values)}"]
        return [flag, rng.choice(values + ["--", "-h", "--human", "--ty"])]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_comes_from_the_table(self, capsys, command):
        for argv, prog, rows in [(["-h"], "strtype", self.COMMANDS),
                                 ([command, "--help"], f"strtype {command}", self.flags(command))]:
            with pytest.raises(SystemExit) as caught:
                cli.parse_args(argv)
            out, err = capsys.readouterr()
            assert (caught.value.code, err) == (0, "")
            assert out.startswith(f"usage: {prog} [-h]")
            assert all(f"\n  {row}" in out for row in rows if row != "--help"), out

    def test_a_usage_error_goes_to_stderr_with_the_usage_line(self, capsys):
        with pytest.raises(SystemExit) as caught:
            cli.parse_args(["narrow", "--f", "X"])
        out, err = capsys.readouterr()
        assert (caught.value.code, out) == (2, "")
        assert err.splitlines() == [
            "usage: strtype narrow [-h] [--file FILE] [--human] --from FROM_TYPE --to TO "
            "[STRING ...]",
            "strtype narrow: error: ambiguous option: --f could match --file, --from"]

    def test_help_flags_run_together_print_help(self, capsys):
        # Argparse reads "-hh" as "-h -h". The generator draws no such run,
        # because argparse reads "-hx" and "-h=h" differently across versions.
        for argv in (["validate", "-hh"], ["-hh"]):
            want = _outcome(build_parser().parse_args, argv)
            assert _outcome(cli.parse_args, argv) == want == ("exit", 0), argv
            assert capsys.readouterr().out.startswith("usage: strtype")

    def test_agrees_with_argparse_but_for_the_widenings(self, monkeypatch):
        # Argparse's messages are not compared: skip their formatting and lookups.
        for name in ("print_usage", "print_help"):
            monkeypatch.setattr(argparse.ArgumentParser, name, lambda self, file=None: None)
        monkeypatch.setattr(argparse, "_", str)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        oracle, seen = build_parser(), collections.Counter()
        rng = random.Random(33)
        for _ in range(10_000):
            argv = self.random_argv(rng)
            want, got = _outcome(oracle.parse_args, argv), _outcome(cli.parse_args, argv)
            if want == got:
                seen[want[0], want[1] if want[0] == "exit" else "ok"] += 1
                continue
            # A widening: argparse exits where the new parser reads inputs
            # split by options, or "-hello world", which argparse reads as -h
            # given a value (an error; help from 3.13). It reads the same once
            # the inputs are moved after "--" and "-hello world" is replaced.
            assert want[0] == "exit", (argv, want, got)
            command = next((arg for arg in argv if arg in self.COMMANDS), None)
            widened, back = self.widened(oracle, argv, command)
            again = _outcome(oracle.parse_args, widened)
            if again[0] == "ok":
                again = "ok", {key: [back.get(v, v) for v in value] if key == "inputs" else
                               back.get(value, value) for key, value in again[1].items()}
            assert again == got, (argv, widened, again, got)
            seen["widened", "-hello world" in argv] += 1
        assert min(seen["ok", "ok"], seen["exit", 0], seen["exit", 2],
                   seen["widened", True], seen["widened", False]) > 100, seen

    def widened(self, oracle, argv, command):
        """``argv`` in the form in which argparse reads what ``parse_args``
        reads: its inputs moved, in order, after one "--" at the end, and
        each "-..." argument with a space that names no option before "="
        replaced by a placeholder, which ``back`` maps to the argument."""
        flags = self.flags(command) if command else ["-h", "--help"]
        values = [flag for flag in flags if flag not in ("-h", "--help", "--human")]
        required = [arg for flag in self.REQUIRED.get(command, ["--type"]) for arg in (flag, "T")]
        back = {}

        def named(arg, among):
            name = arg.partition("=")[0]
            return [flag for flag in among if flag == name or
                    name.startswith("--") and flag.startswith(name)]

        def placed(arg):
            if arg[:1] != "-" or " " not in arg or named(arg, flags):
                return arg
            back[f"placeholder {len(back)}"] = arg
            return f"placeholder {len(back) - 1}"

        def an_input(arg):
            outcome = _outcome(oracle.parse_args, [command, *required, arg])
            return outcome[0] == "ok" and outcome[1].get("inputs") == [arg]

        if command is None:
            return list(map(placed, argv)), back
        at = argv.index(command)
        options, inputs, rest = argv[:at + 1], [], iter(argv[at + 1:])
        for arg in map(placed, rest):
            if arg == "--":
                inputs += map(placed, rest)
            elif an_input(arg):
                inputs.append(arg)
            else:
                options.append(arg)
                if "=" not in arg and len(named(arg, flags)) == 1 and named(arg, values):
                    options += map(placed, itertools.islice(rest, 1))
        return options + ["--"] * bool(inputs) + inputs, back
