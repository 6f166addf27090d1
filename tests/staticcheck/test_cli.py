"""CLI behaviour and the repo-wide self-check.

The self-check is the acceptance bar for this whole subsystem: the
shipped tree must pass its own checker (exit 0, zero findings).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

import repro
from repro.staticcheck import check_paths
from repro.staticcheck.cli import (
    EXIT_BAD_PATH,
    EXIT_BAD_VALUE,
    EXIT_FINDINGS,
    EXIT_OK,
    default_check_root,
    main,
    run_check,
)

PACKAGE_ROOT = str(Path(repro.__file__).parent)


def _run(*args, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run_check(*args, out=out, err=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


class TestSelfCheck:
    def test_repo_passes_its_own_checker(self):
        findings = check_paths([PACKAGE_ROOT])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_self_check_exits_zero(self):
        code, out, err = _run([PACKAGE_ROOT])
        assert code == EXIT_OK
        assert "no findings" in out
        assert err == ""

    def test_default_root_is_the_package(self):
        assert default_check_root() == PACKAGE_ROOT


class TestExitCodes:
    def test_findings_exit_seven(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        code, out, _ = _run([str(dirty)])
        assert code == EXIT_FINDINGS
        assert "R005" in out

    def test_unknown_rule_exits_four(self, tmp_path):
        code, _, err = _run([str(tmp_path)], rules_csv="R999")
        assert code == EXIT_BAD_VALUE
        assert "R999" in err

    def test_missing_path_exits_three(self):
        code, _, err = _run(["/no/such/tree"])
        assert code == EXIT_BAD_PATH
        assert "/no/such/tree" in err


class TestOutputModes:
    def test_json_format_parses(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        code, out, _ = _run([str(dirty)], fmt="json")
        assert code == EXIT_FINDINGS
        payload = json.loads(out)
        assert payload["schema"] == "repro-staticcheck/v3"
        assert payload["checked_files"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["R005"]
        assert [f["severity"] for f in payload["findings"]] == ["error"]

    def test_rules_filter_narrows_findings(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nassert random.random() > 0\n")
        code, out, _ = _run([str(dirty)], rules_csv="R001")
        assert code == EXIT_FINDINGS
        assert "R001" in out and "R005" not in out

    def test_list_rules_prints_all_ten(self):
        code, out, _ = _run([], list_rules=True)
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line.strip()]
        assert [line.split()[0] for line in lines] == [
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R008", "R009", "R010",
        ]
        # Severity and suppression-policy columns are part of the
        # contract (and mirrored into docs/ARCHITECTURE.md).
        for line in lines:
            columns = line.split()
            assert columns[1] in ("error", "warning")
            assert columns[2] in ("allow", "rationale", "partial", "no")


class TestEntryPoints:
    def test_standalone_main(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        assert main([str(dirty)]) == EXIT_FINDINGS
        capsys.readouterr()

    def test_repro_mnm_check_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main as repro_mnm

        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        assert repro_mnm(["check", str(dirty)]) == EXIT_FINDINGS
        assert repro_mnm(["check", PACKAGE_ROOT]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--cache-dir", "d"], ["--jobs", "2"], ["--diff", "HEAD"],
        ["--baseline", "b.json"], ["--write-baseline"],
        ["--format", "sarif"],
    ], ids=["cache-dir", "jobs", "diff", "baseline", "write-baseline",
            "sarif"])
    def test_removed_options_are_usage_errors(self, tmp_path, capsys, flags):
        from repro.experiments.cli import main as repro_mnm

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        for entry_point, argv in ((main, []), (repro_mnm, ["check"])):
            with pytest.raises(SystemExit) as excinfo:
                entry_point([*argv, *flags, str(clean)])
            assert excinfo.value.code == 2
        capsys.readouterr()
