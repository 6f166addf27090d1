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

    def test_output_file_is_the_same_under_both_engines(self, tmp_path,
                                                        capsys):
        """An --output file holds results only: a serial run writes the
        same bytes under either engine, and the wall-clock line goes to
        stdout."""
        paths = {engine: tmp_path / f"{engine}.txt"
                 for engine in ("interp", "fast")}
        for engine, path in paths.items():
            assert main(["run", "table2", "fig15", "--instructions", "4000",
                         "--workloads", "twolf", "--jobs", "1", "--no-cache",
                         "--engine", engine, "--output", str(path)]) == 0
            assert "[fig15 took " in capsys.readouterr().out
        written = paths["interp"].read_bytes()
        assert written == paths["fast"].read_bytes()
        assert b"took" not in written


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

    def test_run_dir_conflicts_with_cache_dir(self, tmp_path, capsys):
        self._expect(["run", "fig10", *SMALL,
                      "--run-dir", str(tmp_path / "run"),
                      "--cache-dir", str(tmp_path / "cache")],
                     EXIT_BAD_VALUE, "--run-dir and --cache-dir", capsys)

    def test_run_dir_conflicts_with_no_cache(self, tmp_path, capsys):
        self._expect(["run", "fig10", *SMALL,
                      "--run-dir", str(tmp_path / "run"), "--no-cache"],
                     EXIT_BAD_VALUE, "--run-dir and --no-cache", capsys)

    @pytest.mark.parametrize("removed", [["profile"], ["resume", "DIR"]],
                             ids=["profile", "resume"])
    def test_removed_flag_is_a_usage_error(self, removed, tmp_path, capsys):
        """Only ``--run-dir`` journals, resumes and times a run."""
        flag, *value = removed
        self._expect(["run", "fig10", *SMALL, f"--{flag}",
                      *(str(tmp_path / name) for name in value)],
                     2, f"unrecognized arguments: --{flag}", capsys)

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

    @pytest.mark.parametrize("argv, code", [
        (["run", "fig10", "--run-dir", "{tmp}/rd",
          "--trace-out", "{tmp}/t.jsonl", "--trace-sample", "0"],
         EXIT_BAD_VALUE),
        (["run", "fig10", "--run-dir", "{tmp}/rd",
          "--metrics-out", "/nonexistent/m.json"], EXIT_BAD_PATH),
        (["run", "fig10", "--run-dir", "{tmp}/rd", "--retries", "-1"],
         EXIT_BAD_VALUE),
        (["run", "fig10", "--cache-dir", "{tmp}/cache", "--retries", "-1"],
         EXIT_BAD_VALUE),
        (["search", "--run-dir", "{tmp}/rd", "--samples", "0"],
         EXIT_BAD_VALUE),
        (["multicore", "--run-dir", "{tmp}/rd", "--cores", "0"],
         EXIT_BAD_VALUE),
    ], ids=["trace-sample", "metrics-out", "retries", "cache-dir",
            "search-samples", "multicore-cores"])
    def test_refused_run_leaves_nothing_on_disk(self, argv, code, tmp_path,
                                                capsys):
        """Every flag is validated before a directory or manifest is made."""
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *SMALL])
        assert excinfo.value.code == code
        capsys.readouterr()
        assert os.listdir(tmp_path) == []


class TestResume:
    def test_journaled_run_skips_completed_passes(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        metrics = tmp_path / "metrics.json"
        assert main(["run", "fig10", *SMALL, "--jobs", "1",
                     "--run-dir", str(run_dir)]) == 0
        assert sorted(os.listdir(run_dir)) == ["manifest.json", "passes"]
        entries = list((run_dir / "passes").glob("*.pkl"))
        assert entries  # at least one completed task

        capsys.readouterr()
        assert main(["run", "fig10", *SMALL, "--jobs", "1",
                     "--run-dir", str(run_dir),
                     "--metrics-out", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["executor.tasks.resumed"] == len(entries)
        assert "executor.tasks.completed" not in counters

    def test_torn_pass_entry_recomputes_only_its_task(self, tmp_path, capsys):
        """A crash can tear a pass entry: a re-run recomputes that task."""
        run_dir = tmp_path / "run"
        argv = ["run", "fig10", "--instructions", "4000",
                "--workloads", "twolf,gcc", "--warmup-fraction", "0.25",
                "--jobs", "1", "--run-dir", str(run_dir)]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main([*argv, "--json", str(first)]) == 0
        entries = sorted((run_dir / "passes").glob("*.pkl"))
        assert len(entries) >= 2
        data = entries[0].read_bytes()
        entries[0].write_bytes(data[:len(data) // 2])

        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        assert main([*argv, "--json", str(second),
                     "--metrics-out", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["executor.tasks.completed"] == 1
        assert counters["executor.tasks.resumed"] == len(entries) - 1
        assert counters["cache.pass.disk.corrupt"] == 1
        assert second.read_text() == first.read_text()


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
