"""Tests for the run journal and the resume contract of ``--run-dir``.

The property that matters: *at every instant* the run directory is a
valid resume point.  Entries become durable the moment a task finishes
(flush + fsync), a torn trailing write costs one recomputed task, and a
resumed run produces the same report as an uninterrupted one.
"""

import dataclasses
import json
import os

import pytest

from repro import telemetry
from repro.experiments.base import ExperimentSettings
from repro.experiments.checkpoint import (
    JOURNAL_MAGIC,
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    RunJournal,
)
from repro.experiments.executor import execute_tasks, plan_experiments
from repro.experiments.passcache import configure_pass_cache
from repro.experiments.report import generate_report
from repro.experiments.resilience import ExecutionPolicy, RetryPolicy

TINY = ExperimentSettings(num_instructions=4000, warmup_fraction=0.25,
                          workloads=("twolf",))
FAST = ExecutionPolicy(retry=RetryPolicy(max_attempts=3, backoff_base=0.0))


@pytest.fixture(autouse=True)
def fresh_state():
    configure_pass_cache()
    yield
    configure_pass_cache()
    telemetry.reset()


class TestJournalFile:
    def test_roundtrip(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunJournal.open(run_dir) as journal:
            assert len(journal) == 0
            journal.record("key-a", "fig10: pass a", elapsed=1.234)
            journal.record("key-b", "fig10: pass b")
            journal.record("key-a", "fig10: pass a")  # idempotent
            assert len(journal) == 2
            assert journal.is_complete("key-a")
            assert not journal.is_complete("key-c")

        reopened = RunJournal.open(run_dir)
        assert len(reopened) == 2
        assert reopened.is_complete("key-a")
        entries = {entry["task"]: entry for entry in reopened.entries()}
        assert entries["fig10: pass a"]["elapsed_s"] == 1.234
        assert "elapsed_s" not in entries["fig10: pass b"]

    def test_header_names_the_schema(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunJournal.open(run_dir) as journal:
            journal.record("key-a")
        first_line = open(os.path.join(run_dir, JOURNAL_NAME)).readline()
        header = json.loads(first_line)
        assert header == {"magic": JOURNAL_MAGIC, "schema": JOURNAL_SCHEMA}

    def test_torn_trailing_line_costs_one_recompute(self, tmp_path):
        """A crash mid-append must not poison the journal."""
        run_dir = str(tmp_path / "run")
        with RunJournal.open(run_dir) as journal:
            journal.record("key-a", "pass a")
            journal.record("key-b", "pass b")
        path = os.path.join(run_dir, JOURNAL_NAME)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key_sha": "deadbeef", "task": "torn wr')
        reopened = RunJournal.open(run_dir)
        assert len(reopened) == 2
        assert reopened.is_complete("key-a")

    def test_unknown_schema_reads_as_empty_and_is_set_aside(self, tmp_path):
        """Entries of unknown shape are recomputed, never misread."""
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        path = os.path.join(run_dir, JOURNAL_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"magic": JOURNAL_MAGIC,
                                     "schema": JOURNAL_SCHEMA + 1}) + "\n")
            handle.write(json.dumps({"key_sha": "abc"}) + "\n")
        journal = RunJournal.open(run_dir)
        assert len(journal) == 0
        assert os.path.exists(path + ".stale")

    def test_garbage_file_reads_as_empty(self, tmp_path):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, JOURNAL_NAME), "w") as handle:
            handle.write("not a journal\n")
        assert len(RunJournal.open(run_dir)) == 0

    def test_non_dict_entries_are_skipped(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunJournal.open(run_dir) as journal:
            journal.record("key-a")
        path = os.path.join(run_dir, JOURNAL_NAME)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('"just a string"\n[1, 2]\n')
        assert len(RunJournal.open(run_dir)) == 1

    def test_truncation_at_every_byte_offset_never_misreads(self, tmp_path):
        """The crash-consistency sweep: cut the file at *every* offset.

        Whatever prefix a crash leaves on disk, loading must (a) not
        raise, (b) recover exactly the entries whose full line survived,
        and (c) never hallucinate a completion that is not byte-intact.
        The non-ASCII task description puts multibyte UTF-8 sequences in
        the file, so some offsets cut *inside* a character.
        """
        run_dir = str(tmp_path / "run")
        with RunJournal.open(run_dir) as journal:
            journal.record("key-a", "fig02: tôlf pass ①")
            journal.record("key-b", "fig02: pass b")
            journal.record("key-c", "fig02: pass c")
        path = os.path.join(run_dir, JOURNAL_NAME)
        with open(path, "rb") as handle:
            data = handle.read()
        # key digest -> byte offset at which its line is fully on disk.
        durable_at = {}
        offset = data.index(b"\n") + 1  # header line
        for line in data[offset:].split(b"\n")[:-1]:
            offset += len(line) + 1
            digest = json.loads(line.decode("utf-8"))["key_sha"]
            durable_at[digest] = offset
        assert len(durable_at) == 3
        for cut in range(len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            journal = RunJournal.open(run_dir)
            # A line is durable once its JSON is byte-complete; the
            # trailing newline itself (offset - 1 vs offset) adds no
            # information, so a cut right before it still recovers.
            expected = {digest for digest, offset in durable_at.items()
                        if offset - 1 <= cut}
            recovered = {entry["key_sha"] for entry in journal.entries()}
            assert recovered == expected, f"mismatch at byte offset {cut}"

    def test_torn_tail_bumps_the_torn_counter(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunJournal.open(run_dir) as journal:
            journal.record("key-a", "pass a")
        path = os.path.join(run_dir, JOURNAL_NAME)
        with open(path, "ab") as handle:
            handle.write(b'{"key_sha": "feedface", "task": "torn \xc3')
        registry = telemetry.enable_metrics()
        journal = RunJournal.open(run_dir)
        assert len(journal) == 1
        assert registry.counter("checkpoint.journal.torn").value == 1

    def test_injected_torn_append_recomputes_on_resume(self, tmp_path):
        """The journal-write chaos site models a crash mid-append."""
        from repro.testing.faults import configure_faults

        run_dir = str(tmp_path / "run")
        configure_faults(json.dumps(
            {"site": "journal-write", "kind": "torn", "fail_attempts": 1}))
        try:
            with RunJournal.open(run_dir) as journal:
                journal.record("key-a", "pass a")
                # The crashed run still believes the task is complete...
                assert journal.is_complete("key-a")
        finally:
            configure_faults(None)
        registry = telemetry.enable_metrics()
        # ...but a resume skips the torn line and recomputes it.
        reopened = RunJournal.open(run_dir)
        assert not reopened.is_complete("key-a")
        assert registry.counter("checkpoint.journal.torn").value == 1


class TestResume:
    def _journaled_run(self, run_dir, settings=TINY, policy=FAST):
        """One journaled execution round against ``run_dir``."""
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        journal = RunJournal.open(run_dir)
        tasks = plan_experiments(["fig10"], settings)
        try:
            computed = execute_tasks(tasks, jobs=1, policy=policy,
                                     journal=journal)
        finally:
            journal.close()
        return tasks, computed

    def test_completed_tasks_are_skipped_on_resume(self, tmp_path):
        run_dir = str(tmp_path / "run")
        tasks, computed = self._journaled_run(run_dir)
        assert computed == len(tasks)
        assert len(RunJournal.open(run_dir)) == len(tasks)

        telemetry.reset()
        registry = telemetry.enable_metrics()
        _, recomputed = self._journaled_run(run_dir)
        assert recomputed == 0
        counters = registry.snapshot()["counters"]
        assert counters["executor.tasks.resumed"] == len(tasks)

    def test_cached_but_unjournaled_work_is_backfilled(self, tmp_path):
        """A shared disk cache seeded outside the journal still ends up
        manifest-complete, so the journal never under-reports a run."""
        run_dir = str(tmp_path / "run")
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        tasks = plan_experiments(["fig10"], TINY)
        execute_tasks(tasks, jobs=1, policy=FAST)  # no journal yet

        journal = RunJournal.open(run_dir)
        try:
            assert execute_tasks(tasks, jobs=1, policy=FAST,
                                 journal=journal) == 0
            assert len(journal) == len(tasks)
        finally:
            journal.close()

    def test_interrupted_run_resumes_to_an_identical_report(self, tmp_path):
        clean = generate_report(TINY, experiments=["fig10"], jobs=1)
        configure_pass_cache()

        run_dir = str(tmp_path / "run")
        interrupted = dataclasses.replace(
            TINY,
            fault_spec=json.dumps({"site": "task", "kind": "interrupt",
                                   "fail_attempts": 1}))
        with pytest.raises(KeyboardInterrupt):
            self._journaled_run(run_dir, settings=interrupted)

        # The journal survived the interruption as a loadable manifest...
        journal = RunJournal.open(run_dir)
        completed_before = len(journal)
        journal.close()

        # ...and the resumed, fault-free run completes with the same bytes.
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        journal = RunJournal.open(run_dir)
        try:
            resumed = generate_report(TINY, experiments=["fig10"],
                                      jobs=1, policy=FAST, journal=journal)
            assert resumed == clean
            assert len(journal) >= max(completed_before, 1)
        finally:
            journal.close()
