"""End-to-end ``--run-dir`` + ``repro-mnm obs`` CLI behaviour."""

from __future__ import annotations

import os

import pytest

from repro.experiments.cli import EXIT_BAD_PATH, EXIT_BAD_VALUE, main
from repro.obs.cli import main as obs_main
from repro.obs.manifest import load_manifest
from repro.obs.show import work_by_kind

SMALL = ["--instructions", "4000", "--workloads", "twolf",
         "--warmup-fraction", "0.25"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One observed ``run fig10`` shared by every test in this module."""
    path = tmp_path_factory.mktemp("obs") / "run"
    code = main(["run", "fig10", *SMALL, "--jobs", "1",
                 "--run-dir", str(path)])
    assert code == 0
    return path


class TestRunDir:
    def test_manifest_written_beside_journal(self, run_dir):
        # The journal is the pass cache: the run directory holds it and
        # the manifest, nothing else.
        assert sorted(os.listdir(run_dir)) == ["manifest.json", "passes"]
        assert list((run_dir / "passes").glob("*.pkl"))
        manifest = load_manifest(str(run_dir))
        assert manifest["status"] == "ok"
        assert manifest["command"] == "run"

    def test_span_tree_covers_every_executed_task(self, run_dir):
        manifest = load_manifest(str(run_dir))
        ledger_ids = {task["task_id"] for task in manifest["tasks"]}
        assert ledger_ids
        span_task_ids = {
            span["attrs"]["task"] for span in manifest["spans"]
            if span["name"].startswith("task.")
        }
        assert ledger_ids == span_task_ids
        # Journal completion count matches the ledger.
        assert manifest["journal"]["completed"] == len(manifest["tasks"])

    def test_counters_recorded_in_manifest(self, run_dir):
        manifest = load_manifest(str(run_dir))
        assert manifest["metrics"]["counters"]["pass.references"] > 0

    def test_rerun_marks_tasks_resumed(self, run_dir, tmp_path):
        import shutil

        # Re-run against a copy so the shared fixture manifest keeps
        # describing the original (executing) run.
        copy = tmp_path / "rerun"
        shutil.copytree(run_dir, copy)
        code = main(["run", "fig10", *SMALL, "--jobs", "1",
                     "--run-dir", str(copy)])
        assert code == 0
        manifest = load_manifest(str(copy))
        assert manifest["tasks"]
        assert all(task["worker"] == "resumed" and task["attempt"] == 0
                   for task in manifest["tasks"])

    def test_conflicting_flags_rejected(self, tmp_path, capsys):
        for extra in (["--cache-dir", str(tmp_path / "c")],
                      ["--no-cache"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "fig10", *SMALL,
                      "--run-dir", str(tmp_path / "d"), *extra])
            assert excinfo.value.code == EXIT_BAD_VALUE
            capsys.readouterr()


class TestObsShow:
    def test_show_renders_timeline_and_tasks(self, run_dir, capsys):
        assert main(["obs", "show", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "task.reference_pass" in out
        assert "slowest" in out

    def test_work_section_counts_the_runs_references(self, run_dir, capsys):
        manifest = load_manifest(str(run_dir))
        work = work_by_kind(manifest["spans"])["task.reference_pass"]
        assert work["tasks"] == len(manifest["tasks"])
        assert (work["units"]
                == manifest["metrics"]["counters"]["pass.references"])
        assert main(["obs", "show", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "work (executed task spans, worker spans included):" in out
        assert f" {work['units']} references " in out

    def test_work_section_counts_core_run_instructions(self, tmp_path,
                                                       capsys):
        path = tmp_path / "table2"
        assert main(["run", "table2", *SMALL, "--jobs", "1",
                     "--run-dir", str(path)]) == 0
        manifest = load_manifest(str(path))
        work = work_by_kind(manifest["spans"])["task.core_run"]
        assert work["tasks"] == 1
        assert (work["units"]
                == manifest["metrics"]["counters"]["core.instructions"])
        capsys.readouterr()
        assert main(["obs", "show", str(path)]) == 0
        assert f" {work['units']} instructions " in capsys.readouterr().out

    def test_show_missing_manifest_exits_3(self, tmp_path, capsys):
        assert main(["obs", "show", str(tmp_path / "none")]) == EXIT_BAD_PATH
        assert "cannot read" in capsys.readouterr().err


class TestObsDiff:
    def test_diff_of_run_against_itself(self, run_dir, capsys):
        assert main(["obs", "diff", str(run_dir), str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "per-phase wall-clock" in out
        assert "warning" not in out  # same fingerprint

    def test_diff_warns_on_fingerprint_mismatch(self, run_dir, tmp_path,
                                                capsys):
        other = tmp_path / "other"
        main(["run", "fig10", "--instructions", "8000",
              "--workloads", "twolf", "--warmup-fraction", "0.25",
              "--jobs", "1", "--run-dir", str(other)])
        capsys.readouterr()
        assert main(["obs", "diff", str(run_dir), str(other)]) == 0
        assert "fingerprints differ" in capsys.readouterr().out


class TestManifestFingerprint:
    def _fingerprint(self, path, *argv):
        assert main(["run", *argv, *SMALL, "--run-dir", str(path)]) == 0
        return load_manifest(str(path))["fingerprint"]

    def test_selected_experiments_enter_the_fingerprint(self, run_dir,
                                                        tmp_path):
        assert (self._fingerprint(tmp_path / "fig13", "fig13", "--jobs", "1")
                != load_manifest(str(run_dir))["fingerprint"])

    def test_execution_flags_leave_the_fingerprint(self, run_dir, tmp_path):
        assert (self._fingerprint(tmp_path / "fig10", "fig10", "--jobs", "2",
                                  "--engine", "interp")
                == load_manifest(str(run_dir))["fingerprint"])


class TestManifestJobs:
    def test_records_the_worker_count_the_run_used(self, tmp_path,
                                                   monkeypatch):
        import repro.experiments.executor as executor_module

        monkeypatch.setattr(executor_module, "default_jobs", lambda: 3)
        assert main(["run", "table1", "--run-dir",
                     str(tmp_path / "auto")]) == 0
        assert load_manifest(str(tmp_path / "auto"))["jobs"] == 3
        # Tracing forces one worker, whatever was asked for.
        assert main(["run", "table1", "--run-dir", str(tmp_path / "traced"),
                     "--trace-out", str(tmp_path / "trace.jsonl")]) == 0
        assert load_manifest(str(tmp_path / "traced"))["jobs"] == 1


class TestObsRegressRemoved:
    @pytest.mark.parametrize("entry_point, prefix", [
        (main, ["obs"]), (obs_main, []),
    ], ids=["repro-mnm", "repro.obs.cli"])
    def test_regress_is_a_usage_error(self, tmp_path, capsys, entry_point,
                                      prefix):
        with pytest.raises(SystemExit) as excinfo:
            entry_point([*prefix, "regress", str(tmp_path),
                         "--baseline", str(tmp_path), "--max-ratio", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "regress" in err
