"""CLI telemetry flags and the ``telemetry summary`` subcommand."""

import json

from repro.experiments.cli import main
from repro.telemetry import format_snapshot

SMALL = ["--instructions", "4000", "--workloads", "twolf",
         "--warmup-fraction", "0.25"]


class TestMetricsOut:
    def test_writes_snapshot_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        code = main(["run", "fig10", *SMALL, "--metrics-out", str(path)])
        assert code == 0
        snapshot = json.loads(path.read_text())
        counters = snapshot["counters"]
        assert counters["pass.references"] > 0
        assert any(key.startswith("cache.") for key in counters)
        assert any(".bypass.l" in key for key in counters)
        assert "metrics snapshot written" in capsys.readouterr().out


class TestTraceOut:
    def test_writes_jsonl_and_sampling_flag(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code = main(["run", "fig10", *SMALL, "--trace-out", str(path),
                     "--trace-sample", "0.5"])
        assert code == 0
        lines = [json.loads(line)
                 for line in path.read_text().splitlines() if line]
        assert lines
        assert all(record["t"] == "access" for record in lines)
        assert "decision trace written" in capsys.readouterr().out


class TestTelemetrySummary:
    def test_pretty_prints_metrics_snapshot(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        main(["run", "fig10", *SMALL, "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert main(["telemetry", "summary", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "pass.references" in out

    def test_aggregates_trace_back_to_counters(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        main(["run", "fig11", *SMALL, "--metrics-out", str(metrics),
              "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["telemetry", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
        # every nonzero bypass counter in the snapshot appears with the
        # same value in the trace aggregation (sampling rate is 1.0)
        derived = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and ".bypass.l" in parts[0]:
                derived[parts[0]] = int(parts[1])
        counters = json.loads(metrics.read_text())["counters"]
        for name, value in counters.items():
            if ".bypass.l" in name and value:
                assert derived[name] == value


class TestErrorPaths:
    def test_trace_sample_out_of_range_is_a_clean_error(self, tmp_path,
                                                        capsys):
        import pytest

        from repro.experiments.cli import EXIT_BAD_VALUE

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig10", *SMALL,
                  "--trace-out", str(tmp_path / "t.jsonl"),
                  "--trace-sample", "0"])
        assert excinfo.value.code == EXIT_BAD_VALUE
        assert "--trace-sample" in capsys.readouterr().err

    def test_bad_output_directory_fails_before_the_run(self, capsys):
        import pytest

        from repro.experiments.cli import EXIT_BAD_PATH

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig10", *SMALL,
                  "--metrics-out", "/nonexistent/m.json"])
        assert excinfo.value.code == EXIT_BAD_PATH
        assert "--metrics-out" in capsys.readouterr().err

    def test_summary_missing_file(self, capsys):
        assert main(["telemetry", "summary", "/nonexistent/m.json"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_summary_non_telemetry_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("not json at all\n")
        assert main(["telemetry", "summary", str(path)]) == 4
        assert "not a telemetry artifact" in capsys.readouterr().err

    def test_summary_json_without_counters_is_not_an_artifact(self, tmp_path,
                                                              capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "other/v1", "metrics": {}}))
        assert main(["telemetry", "summary", str(path)]) == 4
        assert "not a telemetry artifact" in capsys.readouterr().err


class TestSummaryHelpers:
    def test_format_snapshot_sections(self):
        text = format_snapshot({
            "counters": {"a.b": 3},
            "gauges": {"g": 1.5},
            "histograms": {"h": {"count": 2, "mean": 4.0,
                                 "buckets": {"le_8": 2, "gt_8": 0}}},
        })
        assert "a.b" in text
        assert "gauges:" in text
        assert "le_8" in text
