"""Lease-mechanics tests for the filesystem work queue.

The contracts under test, in roughly the order a fleet relies on them:

1. claims are atomic — concurrent claimers get exactly one winner;
2. leases expire — a dead worker's claim lapses after its TTL and the
   takeover continues the attempt numbering (reassignment == retry);
3. result commitment is at-most-once — duplicate computation is fine,
   the second committer always loses;
4. torn files (tasks, results) quarantine instead of being trusted.
"""

import errno
import json
import os
import threading

import pytest

from repro import telemetry
from repro.experiments.backends.queue import (
    QUEUE_MAGIC,
    QUEUE_SCHEMA,
    WorkItem,
    WorkQueue,
)
from repro.experiments.base import ExperimentSettings
from repro.experiments.executor import plan_experiments
from repro.experiments.passcache import configure_pass_cache, key_digest
from repro.testing.faults import configure_faults

TINY = ExperimentSettings(num_instructions=4000, warmup_fraction=0.25,
                          workloads=("twolf",))


@pytest.fixture(autouse=True)
def fresh_state():
    configure_pass_cache()
    configure_faults(None)
    telemetry.enable_metrics()
    yield
    configure_faults(None)
    configure_pass_cache()
    telemetry.reset()


def make_queue(tmp_path, **kwargs) -> WorkQueue:
    return WorkQueue.create(str(tmp_path / "queue"), **kwargs)


def make_items(count=None):
    tasks = plan_experiments(["fig02"], TINY)
    if count is not None:
        tasks = tasks[:count]
    return [WorkItem(index=index, key_digest=key_digest(task.cache_key()),
                     task=task)
            for index, task in enumerate(tasks)]


def counter_value(name: str) -> int:
    return telemetry.get_registry().counter(name).value


class TestHeader:
    def test_create_then_open_roundtrip(self, tmp_path):
        queue = make_queue(tmp_path, flags={"metrics": True},
                           cache_dir=str(tmp_path / "cache"),
                           lease_ttl=7.5)
        opened = WorkQueue.open(queue.root)
        assert opened.flags == {"metrics": True}
        assert opened.cache_dir == str(tmp_path / "cache")
        assert opened.cache_enabled is True
        assert opened.lease_ttl == 7.5

    def test_open_rejects_a_non_queue_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a repro work queue"):
            WorkQueue.open(str(tmp_path), wait_seconds=0.0)

    def test_open_rejects_a_mismatched_schema(self, tmp_path):
        queue = make_queue(tmp_path)
        header = dict(queue.header, schema=QUEUE_SCHEMA + 1)
        with open(queue._header_path(), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header))
        with pytest.raises(ValueError, match="mismatched"):
            WorkQueue.open(queue.root, wait_seconds=0.0)

    def test_recreate_clears_shutdown_and_keeps_results(self, tmp_path):
        queue = make_queue(tmp_path)
        item = make_items(1)[0]
        queue.enqueue(item)
        queue.commit_result(item.key_digest,
                            {"magic": QUEUE_MAGIC, "schema": QUEUE_SCHEMA})
        queue.request_shutdown()
        reopened = WorkQueue.create(queue.root)
        assert not reopened.shutdown_requested()
        assert reopened.has_result(item.key_digest)


class TestEnqueue:
    def test_roundtrip_preserves_the_task(self, tmp_path):
        queue = make_queue(tmp_path)
        item = make_items(1)[0]
        queue.enqueue(item)
        loaded = queue.load_item(item.key_digest)
        assert loaded is not None
        assert loaded.index == item.index
        assert loaded.task.cache_key() == item.task.cache_key()

    def test_enqueue_is_idempotent(self, tmp_path):
        queue = make_queue(tmp_path)
        item = make_items(1)[0]
        queue.enqueue(item)
        queue.enqueue(item)
        assert queue.pending_digests() == [item.key_digest]

    def test_pending_excludes_committed_results(self, tmp_path):
        queue = make_queue(tmp_path)
        items = make_items(2)
        for item in items:
            queue.enqueue(item)
        queue.commit_result(items[0].key_digest,
                            {"magic": QUEUE_MAGIC, "schema": QUEUE_SCHEMA})
        assert queue.pending_digests() == sorted(
            [items[1].key_digest])

    def test_torn_task_file_is_quarantined(self, tmp_path):
        queue = make_queue(tmp_path)
        item = make_items(1)[0]
        queue.enqueue(item)
        path = queue.task_path(item.key_digest)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert queue.load_item(item.key_digest) is None
        assert counter_value("queue.task.quarantined") == 1
        # The slot is free again: a re-enqueue fully restores the task.
        queue.enqueue(item)
        assert queue.load_item(item.key_digest) is not None

    def test_injected_torn_enqueue_quarantines_then_recovers(self, tmp_path):
        queue = make_queue(tmp_path)
        item = make_items(1)[0]
        configure_faults(json.dumps(
            {"site": "queue-write", "kind": "torn", "fail_attempts": 1}))
        queue.enqueue(item)
        configure_faults(None)
        assert queue.load_item(item.key_digest) is None  # quarantined
        queue.enqueue(item)  # the controller's re-enqueue path
        assert queue.load_item(item.key_digest) is not None


class TestClaims:
    def test_concurrent_claimers_get_exactly_one_winner(self, tmp_path):
        root = str(tmp_path / "queue")
        WorkQueue.create(root)
        digest = "f" * 16
        barrier = threading.Barrier(8)
        wins = []

        def contend(worker: str) -> None:
            queue = WorkQueue.open(root)
            barrier.wait()
            lease = queue.claim(digest, worker, ttl=30.0)
            if lease is not None:
                wins.append(lease)

        threads = [threading.Thread(target=contend, args=(f"w{i}",))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert wins[0].attempt == 1

    def test_claim_without_hard_links_fails_loudly(self, tmp_path,
                                                   monkeypatch):
        # A filesystem that refuses hard links must not degrade to a
        # weaker claim that could let two claimers win: the claim raises,
        # and leaves neither a lease nor a temp file behind.
        queue = make_queue(tmp_path)

        def refuse(src, dst):
            raise PermissionError(errno.EPERM, "hard links not supported")

        monkeypatch.setattr(os, "link", refuse)
        with pytest.raises(PermissionError):
            queue.claim("d" * 16, "alpha", ttl=30.0)
        leases = os.path.dirname(queue.lease_path("d" * 16))
        assert os.listdir(leases) == []
        monkeypatch.undo()
        assert queue.claim("d" * 16, "beta", ttl=30.0) is not None

    def test_live_lease_cannot_be_claimed(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.claim("d" * 16, "alpha", ttl=30.0) is not None
        assert queue.claim("d" * 16, "beta", ttl=30.0) is None

    def test_expired_lease_taken_over_with_next_attempt(self, tmp_path):
        queue = make_queue(tmp_path)
        first = queue.claim("d" * 16, "alpha", ttl=0.05)
        assert first is not None and first.attempt == 1
        deadline = first.deadline
        import time
        while time.time() <= deadline:  # wait out the tiny TTL
            time.sleep(0.01)
        second = queue.claim("d" * 16, "beta", ttl=30.0)
        assert second is not None
        assert second.worker == "beta"
        assert second.attempt == 2
        assert counter_value("queue.lease.taken_over") == 1

    def test_attempt_numbering_includes_recorded_errors(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.record_error("d" * 16, 1, "alpha", "Boom", "first", True)
        queue.record_error("d" * 16, 2, "alpha", "Boom", "second", True)
        lease = queue.claim("d" * 16, "beta", ttl=30.0)
        assert lease is not None
        assert lease.attempt == 3

    def test_renew_extends_a_live_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        lease = queue.claim("d" * 16, "alpha", ttl=30.0)
        renewed = queue.renew(lease)
        assert renewed is not None
        assert renewed.deadline >= lease.deadline
        assert renewed.nonce == lease.nonce

    def test_renew_detects_takeover(self, tmp_path):
        queue = make_queue(tmp_path)
        lease = queue.claim("d" * 16, "alpha", ttl=0.05)
        deadline = lease.deadline
        import time
        while time.time() <= deadline:
            time.sleep(0.01)
        assert queue.claim("d" * 16, "beta", ttl=30.0) is not None
        assert queue.renew(lease) is None
        assert counter_value("queue.lease.lost") == 1

    def test_release_only_drops_our_own_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        stale = queue.claim("d" * 16, "alpha", ttl=0.05)
        deadline = stale.deadline
        import time
        while time.time() <= deadline:
            time.sleep(0.01)
        fresh = queue.claim("d" * 16, "beta", ttl=30.0)
        queue.release(stale)  # superseded: must not unlink beta's lease
        assert queue.read_lease("d" * 16) is not None
        queue.release(fresh)
        assert queue.read_lease("d" * 16) is None

    def test_injected_claim_steal_forces_a_duplicate_race(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.claim("d" * 16, "alpha", ttl=30.0) is not None
        configure_faults(json.dumps(
            {"site": "claim", "kind": "steal", "fail_attempts": 5}))
        stolen = queue.claim("d" * 16, "beta", ttl=30.0)
        assert stolen is not None
        assert stolen.attempt == 2
        assert counter_value("queue.lease.steal_injected") == 1


class TestResults:
    ENVELOPE = {"magic": QUEUE_MAGIC, "schema": QUEUE_SCHEMA, "worker": "a"}

    def test_commitment_is_at_most_once(self, tmp_path):
        queue = make_queue(tmp_path)
        twin = dict(self.ENVELOPE, worker="b")
        assert queue.commit_result("d" * 16, self.ENVELOPE) is True
        assert queue.commit_result("d" * 16, twin) is False
        assert queue.load_result("d" * 16)["worker"] == "a"
        assert counter_value("queue.results.duplicate") == 1

    def test_torn_result_is_quarantined(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.commit_result("d" * 16, self.ENVELOPE)
        path = queue.result_path("d" * 16)
        with open(path, "wb") as handle:
            handle.write(b"\x80truncated")
        assert queue.load_result("d" * 16) is None
        assert counter_value("queue.result.quarantined") == 1
        # The digest reads as pending again, so the task recomputes.
        assert not queue.has_result("d" * 16)

    def test_error_records_roundtrip(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.record_error("d" * 16, 2, "alpha", "ValueError", "bad", False)
        records = queue.load_errors("d" * 16)
        assert len(records) == 1
        assert records[0]["attempt"] == 2
        assert records[0]["retryable"] is False
