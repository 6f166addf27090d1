"""Tests for the command-line harness."""

import json
import os

import pytest

from repro.experiments.cli import (
    EXIT_BAD_PATH,
    EXIT_BAD_VALUE,
    EXIT_UNKNOWN_EXPERIMENT,
    main,
)


class TestList:
    def test_list_prints_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("fig02", "fig15", "table2"):
            assert experiment_id in out
        assert "[heavy]" in out


class TestRun:
    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "RMNM worked example" in out
        assert "YES (matches Table 1)" in out

    def test_run_with_settings(self, capsys):
        code = main(["run", "fig10", "--instructions", "4000",
                     "--workloads", "twolf", "--warmup-fraction", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMNM coverage" in out
        assert "twolf" in out

    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig99"])
        assert excinfo.value.code == EXIT_UNKNOWN_EXPERIMENT
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "repro-mnm list" in err

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.txt"
        main(["run", "table3", "--output", str(path)])
        capsys.readouterr()
        assert "HMNM4" in path.read_text()


SMALL = ["--instructions", "4000", "--workloads", "twolf",
         "--warmup-fraction", "0.25"]


class TestExitCodes:
    """Known user errors map to distinct codes with a one-line message."""

    def _expect(self, argv, code, fragment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == code
        assert fragment in capsys.readouterr().err

    def test_negative_retries(self, capsys):
        self._expect(["run", "fig10", *SMALL, "--retries", "-1"],
                     EXIT_BAD_VALUE, "--retries", capsys)

    def test_non_positive_task_timeout(self, capsys):
        self._expect(["run", "fig10", *SMALL, "--task-timeout", "0"],
                     EXIT_BAD_VALUE, "--task-timeout", capsys)

    def test_negative_jobs(self, capsys):
        self._expect(["run", "fig10", *SMALL, "--jobs", "-2"],
                     EXIT_BAD_VALUE, "--jobs", capsys)

    def test_resume_conflicts_with_cache_dir(self, tmp_path, capsys):
        self._expect(["run", "fig10", *SMALL,
                      "--resume", str(tmp_path / "run"),
                      "--cache-dir", str(tmp_path / "cache")],
                     EXIT_BAD_VALUE, "--resume and --cache-dir", capsys)

    def test_resume_conflicts_with_no_cache(self, tmp_path, capsys):
        self._expect(["run", "fig10", *SMALL,
                      "--resume", str(tmp_path / "run"), "--no-cache"],
                     EXIT_BAD_VALUE, "--resume and --no-cache", capsys)

    @pytest.mark.parametrize("argv, fragment", [
        (["--instructions", "0"], "at least 1000 instructions"),
        (["--warmup-fraction", "1.5"], "warmup_fraction"),
        (["--workloads", "twolf,nosuch"], "--workloads: unknown"),
    ])
    def test_bad_settings_value(self, argv, fragment, capsys):
        self._expect(["run", "fig10", *SMALL, *argv],
                     EXIT_BAD_VALUE, fragment, capsys)

    def test_unknown_design_name(self, capsys):
        self._expect(["designs", "NOSUCH"], EXIT_BAD_VALUE, "NOSUCH", capsys)

    @pytest.mark.parametrize("flag", ["--output", "--json", "--report-out"])
    def test_missing_output_directory(self, flag, tmp_path, capsys):
        """A results path that cannot be written fails before the run."""
        path = str(tmp_path / "missing" / "out")
        self._expect(["report", "--skip-heavy", *SMALL, flag, path],
                     EXIT_BAD_PATH, f"{flag} directory does not exist",
                     capsys)


class TestResume:
    def test_journaled_run_skips_completed_passes(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        metrics = tmp_path / "metrics.json"
        assert main(["run", "fig10", *SMALL, "--jobs", "1",
                     "--resume", str(run_dir)]) == 0
        journal = run_dir / "journal.jsonl"
        assert journal.exists()
        entries = journal.read_text().splitlines()
        assert len(entries) >= 2  # header + at least one completed task
        assert (run_dir / "passes").is_dir()
        assert os.listdir(run_dir / "passes")

        capsys.readouterr()
        assert main(["run", "fig10", *SMALL, "--jobs", "1",
                     "--resume", str(run_dir),
                     "--metrics-out", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["executor.tasks.resumed"] == len(entries) - 1
        assert "executor.tasks.completed" not in counters


class TestAll:
    def test_all_skip_heavy_small(self, capsys):
        code = main(["all", "--skip-heavy", "--instructions", "4000",
                     "--workloads", "twolf", "--warmup-fraction", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "fig14" in out
        assert "fig15" not in out


class TestMulticoreCommand:
    ARGS = ["multicore", "--instructions", "3000", "--workloads", "twolf",
            "--warmup-fraction", "0.25", "--cores", "2",
            "--sharing", "private,shared", "--l2-policy", "inclusive",
            "--designs", "TMNM_10x1,PERFECT"]

    def test_contention_report(self, capsys):
        assert main(list(self.ARGS)) == 0
        out = capsys.readouterr().out
        assert "multi-core contention" in out
        assert "private" in out and "shared" in out
        assert "violations" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        assert main([*self.ARGS, "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["experiment_id"] == "multicore"
        # every row's violations column must read 0 (soundness contract)
        index = payload["headers"].index("violations")
        assert all(row[index] == 0 for row in payload["rows"])

    def _expect(self, argv, fragment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_BAD_VALUE
        assert fragment in capsys.readouterr().err

    def test_rejects_zero_cores(self, capsys):
        self._expect(["multicore", "--cores", "0"], "--cores", capsys)

    def test_rejects_unknown_sharing(self, capsys):
        self._expect(["multicore", "--sharing", "split"], "--sharing",
                     capsys)

    def test_rejects_unknown_policy(self, capsys):
        self._expect(["multicore", "--l2-policy", "victim"], "--l2-policy",
                     capsys)

    def test_rejects_unparsable_design(self, capsys):
        self._expect(["multicore", "--designs", "NOT_A_DESIGN"],
                     "--designs", capsys)

    def test_rejects_negative_schedule_seed(self, capsys):
        self._expect(["multicore", "--schedule-seed", "-3"],
                     "--schedule-seed", capsys)
