"""Engine mechanics: discovery, suppressions, ordering, reporters."""

from __future__ import annotations

import json
import textwrap

from repro.staticcheck import check_paths, check_source, render_json, render_text
from repro.staticcheck.engine import (
    PARSE_ERROR_ID,
    iter_python_files,
    module_name_for,
)
from repro.staticcheck.rules import rules_for


def _check(source, module="repro.core.fixture", **kwargs):
    return check_source(textwrap.dedent(source), module=module, **kwargs)


class TestDiscovery:
    def test_walk_is_sorted_and_skips_caches(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "__pycache__"
        sub.mkdir()
        (sub / "a.cpython-311.py").write_text("x = 1\n")
        hidden = tmp_path / ".hidden"
        hidden.mkdir()
        (hidden / "c.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [f.split("/")[-1] for f in files] == ["a.py", "b.py"]

    def test_missing_path_raises(self):
        try:
            iter_python_files(["/definitely/not/there"])
        except FileNotFoundError:
            pass
        else:
            raise AssertionError("expected FileNotFoundError")

    def test_module_name_resolution(self):
        assert module_name_for("src/repro/core/base.py") == "repro.core.base"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"
        assert module_name_for("src/repro/simulate.py") == "repro.simulate"
        assert module_name_for("/elsewhere/foo.py") is None


class TestSuppressions:
    def test_trailing_marker_silences(self):
        findings = _check("assert True  # repro: allow[R005] type narrowing\n")
        assert findings == []

    def test_marker_on_line_above_silences(self):
        findings = _check(
            """\
            # repro: allow[R005] type narrowing
            assert True
            """
        )
        assert findings == []

    def test_marker_two_lines_above_does_not_silence(self):
        findings = _check(
            """\
            # repro: allow[R005] too far away
            x = 1
            assert True
            """
        )
        assert [f.rule_id for f in findings] == ["R005"]

    def test_marker_for_other_rule_does_not_silence(self):
        findings = _check("assert True  # repro: allow[R001] wrong rule\n")
        assert [f.rule_id for f in findings] == ["R005"]

    def test_star_marker_silences_everything(self):
        findings = _check("assert True  # repro: allow[*] grandfathered\n")
        assert findings == []

    def test_multi_rule_marker(self):
        findings = _check(
            "assert True  # repro: allow[R001,R005] both named\n")
        assert findings == []

    def test_marker_inside_string_is_ignored(self):
        findings = _check(
            's = "# repro: allow[R005]"\nassert True\n')
        assert [f.rule_id for f in findings] == ["R005"]


class TestReporters:
    def test_text_and_json_are_sorted_and_stable(self):
        source = textwrap.dedent(
            """\
            assert second_finding
            assert first_line_sorts_first
            """
        )
        findings = _check(source)
        assert [f.line for f in findings] == [1, 2]
        text = render_text(findings)
        assert "R005" in text and text.endswith("2 findings")
        payload = json.loads(render_json(findings, checked_files=1))
        assert payload["schema"] == "repro-staticcheck/v3"
        assert payload["checked_files"] == 1
        assert [f["line"] for f in payload["findings"]] == [1, 2]

    def test_clean_report_renders(self):
        assert "no findings" in render_text([])
        assert json.loads(render_json([]))["findings"] == []


class TestRuleSelection:
    def test_rules_subset_runs_only_those(self):
        source = "assert True\nx = random.random()\nimport random\n"
        only_r001 = _check(source, rules=rules_for(["R001"]))
        assert {f.rule_id for f in only_r001} == {"R001"}
        only_r005 = _check(source, rules=rules_for(["r005"]))
        assert {f.rule_id for f in only_r005} == {"R005"}

    def test_unknown_rule_id_raises(self):
        try:
            rules_for(["R404"])
        except ValueError as exc:
            assert "R404" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestParseErrors:
    def test_unparsable_file_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = check_paths([str(tmp_path)])
        assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]
        assert not findings[0].suppressible
