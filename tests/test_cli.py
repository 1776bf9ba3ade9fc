import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strtype
from strtype.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(stdout):
    # Records end at "\n"; a record's strings may hold U+2028 unescaped.
    return [json.loads(line) for line in stdout.split("\n") if line]


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
