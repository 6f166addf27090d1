"""``telemetry summary`` helpers on damaged or mismatched artifacts."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.summary import (
    aggregate_trace,
    format_trace_summary,
    summarize_path,
)


def _access(kind="load", supplier=1, designs=None):
    return json.dumps({"t": "access", "kind": kind, "supplier": supplier,
                       "designs": designs or {}})


class TestAggregateTraceTolerance:
    def test_empty_file_aggregates_to_zero(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        aggregate = aggregate_trace(str(path))
        assert aggregate["records"] == 0
        assert aggregate["skipped"] == 0

    def test_truncated_last_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            _access() + "\n"
            + _access(designs={"RMNM": {"bypassed": [2, 3]}}) + "\n"
            + '{"t": "access", "kind": "lo')  # torn mid-write
        aggregate = aggregate_trace(str(path))
        assert aggregate["records"] == 2
        assert aggregate["skipped"] == 1
        assert aggregate["designs"]["RMNM"] == {2: 1, 3: 1}

    def test_non_object_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('[1, 2]\n"just a string"\n' + _access() + "\n")
        aggregate = aggregate_trace(str(path))
        assert aggregate["records"] == 1
        assert aggregate["skipped"] == 2

    def test_skipped_lines_surface_in_rendering(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(_access() + "\n{torn")
        text = format_trace_summary(str(path))
        assert "skipped: 1" in text

    def test_clean_trace_reports_no_skips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(_access() + "\n")
        assert "skipped" not in format_trace_summary(str(path))


class TestSummarizePathMismatches:
    def test_empty_file_is_rejected_with_value_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ValueError):
            summarize_path(str(path))

    def test_non_object_json_is_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            summarize_path(str(path))

    def test_unknown_object_schema_is_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else/v9",
                                    "payload": {"x": 1}}))
        with pytest.raises(ValueError, match="not a telemetry artifact"):
            summarize_path(str(path))
