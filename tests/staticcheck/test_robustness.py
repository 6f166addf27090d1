"""The checker never crashes on a broken tree — it reports or skips.

Satellite contract: broken syntax, null bytes, undecodable files and
empty packages all map to a *finding* (E001/E002, exit 7) or a clean
skip (exit 0), with the exit-code table pinned.  A checker that dies on
the tree it is judging is useless exactly when it is needed.
"""

from __future__ import annotations

import io

from repro.staticcheck.cli import (
    EXIT_BAD_PATH,
    EXIT_BAD_VALUE,
    EXIT_FINDINGS,
    EXIT_OK,
    run_check,
)
from repro.staticcheck.engine import (
    LOAD_ERROR_ID,
    PARSE_ERROR_ID,
    load_module_checked,
)


def _run(*args, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run_check(*args, out=out, err=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


class TestBrokenInputs:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def half(:\n")
        code, out, err = _run([str(broken)])
        assert code == EXIT_FINDINGS
        assert PARSE_ERROR_ID in out
        assert err == ""

    def test_null_bytes_are_a_finding(self, tmp_path):
        hostile = tmp_path / "hostile.py"
        hostile.write_bytes(b"x = 1\x00\n")
        code, out, _ = _run([str(hostile)])
        assert code == EXIT_FINDINGS
        assert PARSE_ERROR_ID in out

    def test_undecodable_bytes_are_a_finding(self, tmp_path):
        hostile = tmp_path / "latin.py"
        hostile.write_bytes(b"# \xff\xfe not utf-8\nx = 1\n")
        code, out, _ = _run([str(hostile)])
        assert code == EXIT_FINDINGS
        assert LOAD_ERROR_ID in out

    def test_parse_errors_cannot_be_suppressed(self, tmp_path):
        # An unparseable file has no suppression table: a wildcard
        # marker inside it changes nothing.
        broken = tmp_path / "broken.py"
        broken.write_text("# repro: allow[*] nice try\ndef half(:\n")
        code, out, _ = _run([str(broken)])
        assert code == EXIT_FINDINGS
        assert PARSE_ERROR_ID in out

    def test_broken_file_does_not_poison_neighbours(self, tmp_path):
        (tmp_path / "broken.py").write_text("def half(:\n")
        (tmp_path / "fine.py").write_text("assert True\n")
        code, out, _ = _run([str(tmp_path)])
        assert code == EXIT_FINDINGS
        assert PARSE_ERROR_ID in out and "R005" in out

    def test_load_module_checked_never_raises(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def half(:\n")
        module, failure = load_module_checked(str(broken))
        assert module is None
        assert failure.rule_id == PARSE_ERROR_ID
        assert not failure.suppressible


class TestCleanSkips:
    def test_empty_package_is_clean(self, tmp_path):
        (tmp_path / "empty_pkg").mkdir()
        code, out, _ = _run([str(tmp_path / "empty_pkg")])
        assert code == EXIT_OK
        assert "no findings" in out

    def test_empty_file_is_clean(self, tmp_path):
        (tmp_path / "empty.py").write_text("")
        code, _, _ = _run([str(tmp_path)])
        assert code == EXIT_OK

    def test_non_python_files_are_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("assert True\n")
        (tmp_path / "data.json").write_text("{broken")
        code, _, _ = _run([str(tmp_path)])
        assert code == EXIT_OK

    def test_hidden_and_pycache_dirs_skipped(self, tmp_path):
        hidden = tmp_path / ".venv"
        hidden.mkdir()
        (hidden / "bad.py").write_text("def half(:\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "bad.py").write_text("def half(:\n")
        code, _, _ = _run([str(tmp_path)])
        assert code == EXIT_OK


class TestPinnedExitCodes:
    def test_missing_path_is_three(self):
        code, _, err = _run(["/no/such/tree"])
        assert code == EXIT_BAD_PATH and "/no/such/tree" in err

    def test_bad_rules_value_is_four(self, tmp_path):
        code, _, _ = _run([str(tmp_path)], rules_csv="R123")
        assert code == EXIT_BAD_VALUE

    def test_bad_format_is_four(self, tmp_path):
        code, _, err = _run([str(tmp_path)], fmt="yaml")
        assert code == EXIT_BAD_VALUE and "yaml" in err

    def test_warnings_alone_do_not_fail(self, tmp_path):
        # A warning-severity finding prints but exits 0 — the landing
        # state for a new rule before it is promoted to error.
        from repro.staticcheck.engine import Finding, has_errors

        warning = Finding(rule_id="RX", path="x.py", line=1, col=1,
                          message="m", severity="warning")
        error = Finding(rule_id="RX", path="x.py", line=1, col=1,
                        message="m", severity="error")
        assert not has_errors([warning])
        assert has_errors([warning, error])
