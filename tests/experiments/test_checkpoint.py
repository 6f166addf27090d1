"""Tests for the run journal and the resume contract of ``--run-dir``.

The property that matters: *at every instant* the run directory is a
valid resume point.  The journal is a view of the run directory's pass
cache: a published entry is a completed task, an entry torn by a crash
reads back as a miss and costs one recomputed task, and a resumed run
produces the same report as an uninterrupted one.
"""

import json
import os

import pytest

from repro import telemetry
from repro.experiments.base import ExperimentSettings
from repro.experiments.checkpoint import RunJournal
from repro.experiments.executor import execute_tasks, plan_experiments
from repro.experiments.passcache import (
    PassCache,
    configure_pass_cache,
    key_digest,
)
from repro.experiments.report import generate_report
from repro.experiments.resilience import ExecutionPolicy, RetryPolicy

TINY = ExperimentSettings(num_instructions=4000, warmup_fraction=0.25,
                          workloads=("twolf",))
FAST = ExecutionPolicy(retry=RetryPolicy(max_attempts=3, backoff_base=0.0))


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    configure_pass_cache()
    yield
    configure_pass_cache()
    telemetry.reset()


class TestJournalFile:
    """The journal's record on disk is the run directory's pass cache."""

    def test_roundtrip(self, tmp_path):
        run_dir = str(tmp_path / "run")
        cache = PassCache(cache_dir=RunJournal.passes_dir(run_dir))
        with RunJournal.open(run_dir) as journal:
            assert len(journal) == 0
            for key in ("key-a", "key-b"):
                cache.store(key, {"result": key})
                journal.record(key, elapsed=1.234)
            journal.record("key-a")  # idempotent
            journal.record("key-c")  # counted here, but never cached
            assert len(journal) == 3
            assert journal.is_complete("key-a")
            assert not journal.is_complete("key-d")
        # The journal wrote nothing of its own.
        assert os.listdir(run_dir) == ["passes"]

        reopened = RunJournal.open(run_dir)
        assert len(reopened) == 2
        assert reopened.is_complete("key-a")
        assert reopened.is_complete("key-b")
        assert not reopened.is_complete("key-c")

    def test_garbage_file_reads_as_empty(self, tmp_path):
        """Only published entries count: temp, quarantined, stray files."""
        run_dir = tmp_path / "run"
        passes = run_dir / "passes"
        passes.mkdir(parents=True)
        digest = key_digest("key-a")
        for name in (f"{digest}.pkl.tmp.123.456",
                     f"{digest}.pkl.quarantine.789",
                     f"{digest.upper()}.pkl", f"{digest}.json",
                     "not-a-digest.pkl"):
            (passes / name).write_bytes(b"garbage")
        journal = RunJournal.open(str(run_dir))
        assert len(journal) == 0
        assert not journal.is_complete("key-a")

    def test_truncation_at_every_byte_offset_never_misreads(self, tmp_path):
        """The crash-consistency sweep: cut a pass entry at *every* offset.

        Entries are published without fsync, so a crash can leave any
        prefix under the final name.  The journal still lists it; reading
        it back must not raise and must return either the exact result
        (the whole file) or a miss, which recomputes the task.  The
        non-ASCII payload puts multibyte UTF-8 sequences in the file, so
        some offsets cut *inside* a character.
        """
        run_dir = str(tmp_path / "run")
        passes = RunJournal.passes_dir(run_dir)
        value = {"task": "fig02: tôlf pass ①", "references": [1, 2, 3]}
        PassCache(cache_dir=passes).store("key-a", value)
        path = os.path.join(passes, f"{key_digest('key-a')}.pkl")
        with open(path, "rb") as handle:
            data = handle.read()
        for cut in range(len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            assert RunJournal.open(run_dir).is_complete("key-a")
            loaded = PassCache(cache_dir=passes).lookup("key-a")
            expected = value if cut == len(data) else None
            assert loaded == expected, f"mismatch at byte offset {cut}"


class TestResume:
    def _journaled_run(self, run_dir, policy=FAST):
        """One journaled execution round against ``run_dir``."""
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        tasks = plan_experiments(["fig10"], TINY)
        with RunJournal.open(run_dir) as journal:
            computed = execute_tasks(tasks, jobs=1, policy=policy,
                                     journal=journal)
        return tasks, computed

    def test_completed_tasks_are_skipped_on_resume(self, tmp_path):
        run_dir = str(tmp_path / "run")
        tasks, computed = self._journaled_run(run_dir)
        assert computed == len(tasks)
        assert len(RunJournal.open(run_dir)) == len(tasks)
        assert (sorted(os.listdir(RunJournal.passes_dir(run_dir)))
                == sorted(f"{key_digest(task.cache_key())}.pkl"
                          for task in tasks))

        telemetry.reset()
        registry = telemetry.enable_metrics()
        _, recomputed = self._journaled_run(run_dir)
        assert recomputed == 0
        counters = registry.snapshot()["counters"]
        assert counters["executor.tasks.resumed"] == len(tasks)

    def test_cached_but_unjournaled_work_is_backfilled(self, tmp_path):
        """Work cached after the journal opened still ends up
        manifest-complete, so the journal never under-reports a run."""
        run_dir = str(tmp_path / "run")
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        tasks = plan_experiments(["fig10"], TINY)
        with RunJournal.open(run_dir) as journal:
            execute_tasks(tasks, jobs=1, policy=FAST)  # not journaled
            assert len(journal) == 0
            assert execute_tasks(tasks, jobs=1, policy=FAST,
                                 journal=journal) == 0
            assert len(journal) == len(tasks)

    def test_interrupted_run_resumes_to_an_identical_report(self, tmp_path,
                                                             monkeypatch):
        clean = generate_report(TINY, experiments=["fig10"], jobs=1)
        configure_pass_cache()

        run_dir = str(tmp_path / "run")
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(
            {"site": "task", "kind": "interrupt", "fail_attempts": 1}))
        with pytest.raises(KeyboardInterrupt):
            self._journaled_run(run_dir)
        monkeypatch.delenv("REPRO_FAULTS")

        # The run directory survived the interruption as a resume point...
        completed_before = len(RunJournal.open(run_dir))

        # ...and the resumed, fault-free run completes with the same bytes.
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        with RunJournal.open(run_dir) as journal:
            resumed = generate_report(TINY, experiments=["fig10"],
                                      jobs=1, policy=FAST, journal=journal)
            assert resumed == clean
            assert len(journal) >= max(completed_before, 1)
