"""Filesystem-backed work queue with lease-based claims.

The distributed backend's shared substrate: a controller enqueues
picklable task specs into a queue directory, and any number of
independent ``repro-mnm worker`` processes — on this host or on any
host sharing the filesystem — claim, execute and commit them.  No
daemon, no sockets, no third-party broker: every coordination primitive
is a POSIX filesystem guarantee (``os.link`` exclusive creation and
first-writer-wins, ``os.replace`` atomicity).

Layout::

    <queue>/queue.json            # header: schema + telemetry/cache config
    <queue>/tasks/<digest>.task   # one pickled WorkItem per planned task
    <queue>/leases/<digest>.json  # live claim: worker, attempt, deadline
    <queue>/results/<digest>.pkl  # committed outcome envelope
    <queue>/errors/<digest>.a<N>.json  # one record per failed attempt
    <queue>/shutdown              # marker: workers drain and exit
    <queue>/logs/                 # per-worker logs (controller-spawned)

Failure model — every rule exists so a fleet with crashing, hanging or
duplicated workers still converges to the serial run's exact bytes:

* **claim atomicity** — a fresh claim writes the lease to a temp file
  and hard-links it into place: the filesystem picks exactly one winner
  among concurrent claimers, and no loser ever sees a half-written
  lease.
* **leases expire** — a claim carries a wall-clock deadline, renewed by
  the worker's heartbeat thread.  A worker that is SIGKILLed, hangs, or
  stalls its renewals simply stops renewing; once the deadline lapses
  any other worker takes the lease over (atomic rewrite + read-back
  verify) with an incremented attempt number, which flows into the span
  ledger and into fault-injection convergence exactly like a pool retry.
* **duplicate execution is tolerated, duplicate *commitment* is not** —
  takeover cannot preempt a zombie worker that is still running, so two
  workers may compute the same task.  Tasks are pure functions of their
  spec, so both compute identical payloads; ``os.link`` commits exactly
  one envelope (first writer wins) and the loser discards.  At-most-once
  commitment, not at-most-once execution, is what byte-identity needs.
* **torn writes quarantine** — a task/result file that no longer
  unpickles (a writer died mid-write, or chaos tore it) is renamed
  aside and recreated/recomputed, never trusted.

Wall-clock note: lease deadlines are the one place this repo
legitimately needs ``time.time()`` — they must be comparable across
processes that share nothing but the filesystem.  Determinism is
unaffected: deadlines only decide *which worker* computes a task, and
the task's value never depends on that.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro import telemetry
from repro.experiments.atomic import (
    create_exclusive,
    publish_linked,
    replace_atomic,
)
from repro.experiments.planning import Task

#: Queue header magic + layout version.  Bump the version whenever the
#: on-disk item/envelope shape changes; workers refuse mismatched queues
#: instead of misreading them.
QUEUE_MAGIC = "repro-workqueue"
QUEUE_SCHEMA = 1

HEADER_NAME = "queue.json"
TASKS_DIR = "tasks"
LEASES_DIR = "leases"
RESULTS_DIR = "results"
ERRORS_DIR = "errors"
LOGS_DIR = "logs"
SHUTDOWN_NAME = "shutdown"


def _wall_clock() -> float:
    """Cross-process lease clock (see the module docstring)."""
    # repro: allow[R001] lease deadlines must be comparable across worker processes; they never influence simulation results
    return time.time()


@dataclass(frozen=True)
class WorkItem:
    """One enqueued task: the pickled payload of a ``tasks/`` file.

    ``index`` is the controller's submission position — the order results
    are merged back in, which is what keeps a distributed run
    byte-identical to a serial one.  Process-boundary dataclass: R003
    pins every field picklable.
    """

    index: int
    key_digest: str
    task: Task


@dataclass(frozen=True)
class Lease:
    """A live claim on one task, as read from/written to a lease file."""

    key_digest: str
    worker: str
    attempt: int
    deadline: float
    ttl: float
    nonce: str

    def to_json(self) -> str:
        return json.dumps({
            "worker": self.worker,
            "attempt": self.attempt,
            "deadline": self.deadline,
            "ttl": self.ttl,
            "nonce": self.nonce,
        }, sort_keys=True)


class WorkQueue:
    """One queue directory, shared by a controller and N workers."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.header: Dict[str, Any] = {}
        self._nonce_counter = 0

    # -- paths -------------------------------------------------------------

    def _header_path(self) -> str:
        return os.path.join(self.root, HEADER_NAME)

    def task_path(self, digest: str) -> str:
        return os.path.join(self.root, TASKS_DIR, f"{digest}.task")

    def lease_path(self, digest: str) -> str:
        return os.path.join(self.root, LEASES_DIR, f"{digest}.json")

    def result_path(self, digest: str) -> str:
        return os.path.join(self.root, RESULTS_DIR, f"{digest}.pkl")

    def error_path(self, digest: str, attempt: int) -> str:
        return os.path.join(self.root, ERRORS_DIR,
                            f"{digest}.a{attempt}.json")

    def shutdown_path(self) -> str:
        return os.path.join(self.root, SHUTDOWN_NAME)

    def logs_dir(self) -> str:
        return os.path.join(self.root, LOGS_DIR)

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, root: str, flags: Optional[dict] = None,
               cache_dir: Optional[str] = None,
               cache_enabled: bool = True,
               lease_ttl: float = 30.0) -> "WorkQueue":
        """Controller side: (re)initialise a queue directory.

        Safe on an existing directory — a resumed run reuses committed
        results (tasks are pure, so results from an interrupted run are
        still valid) and only clears the shutdown marker and rewrites
        the header.
        """
        queue = cls(root)
        for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR, ERRORS_DIR,
                    LOGS_DIR):
            os.makedirs(os.path.join(root, sub), exist_ok=True)
        try:
            os.unlink(queue.shutdown_path())
        except OSError:
            pass
        header = {
            "magic": QUEUE_MAGIC,
            "schema": QUEUE_SCHEMA,
            "flags": dict(flags or {}),
            "cache_dir": os.path.abspath(cache_dir) if cache_dir else None,
            "cache_enabled": cache_enabled,
            "lease_ttl": lease_ttl,
        }
        _atomic_write(queue._header_path(),
                      (json.dumps(header, sort_keys=True) + "\n").encode())
        queue.header = header
        return queue

    @classmethod
    def open(cls, root: str, wait_seconds: float = 0.0) -> "WorkQueue":
        """Worker side: attach to an existing queue directory.

        ``wait_seconds`` tolerates a worker starting before the
        controller finished writing the header.  Raises ``ValueError``
        on a missing or mismatched header once the wait is exhausted.
        """
        queue = cls(root)
        deadline = _wall_clock() + wait_seconds
        while True:
            try:
                with open(queue._header_path(), "r",
                          encoding="utf-8") as handle:
                    header = json.loads(handle.read())
            except (OSError, json.JSONDecodeError):
                header = None
            if (isinstance(header, dict)
                    and header.get("magic") == QUEUE_MAGIC
                    and header.get("schema") == QUEUE_SCHEMA):
                queue.header = header
                return queue
            if _wall_clock() >= deadline:
                raise ValueError(
                    f"{root} is not a repro work queue (missing or "
                    f"mismatched {HEADER_NAME}; expected magic "
                    f"{QUEUE_MAGIC!r} schema {QUEUE_SCHEMA})")
            time.sleep(0.05)

    # -- header-carried worker config --------------------------------------

    @property
    def cache_dir(self) -> Optional[str]:
        return self.header.get("cache_dir")

    @property
    def cache_enabled(self) -> bool:
        return bool(self.header.get("cache_enabled", True))

    @property
    def flags(self) -> dict:
        return dict(self.header.get("flags") or {})

    @property
    def lease_ttl(self) -> float:
        return float(self.header.get("lease_ttl") or 30.0)

    # -- enqueue / scan ----------------------------------------------------

    def enqueue(self, item: WorkItem) -> None:
        """Write one task file (atomic; idempotent per digest).

        An existing readable task file is kept (a resumed controller
        re-enqueues the same pure task); an unreadable one — a torn
        write from a crashed controller or injected chaos — is
        quarantined and rewritten.
        """
        path = self.task_path(item.key_digest)
        if os.path.exists(path):
            if self.load_item(item.key_digest) is not None:
                return
        payload = {"magic": QUEUE_MAGIC, "schema": QUEUE_SCHEMA,
                   "item": item}
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        injector = _fault_injector()
        if injector is not None and injector.should_tear(
                "queue-write", item.key_digest):
            # Chaos hook: the controller "crashes" mid-write — workers
            # must quarantine the torn file, and the controller's
            # supervision loop must notice and re-enqueue.
            data = data[: max(1, len(data) // 2)]
        _atomic_write(path, data)
        telemetry.get_registry().counter("queue.tasks.enqueued").inc()

    def load_item(self, digest: str) -> Optional[WorkItem]:
        """Read one task file; quarantines and returns None when torn."""
        path = self.task_path(digest)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, ValueError):
            self._quarantine(path, "task")
            return None
        if (not isinstance(payload, dict)
                or payload.get("magic") != QUEUE_MAGIC
                or payload.get("schema") != QUEUE_SCHEMA
                or not isinstance(payload.get("item"), WorkItem)):
            self._quarantine(path, "task")
            return None
        return payload["item"]

    def pending_digests(self) -> List[str]:
        """Digests with a task file and no committed result, sorted."""
        try:
            names = os.listdir(os.path.join(self.root, TASKS_DIR))
        except OSError:
            return []
        digests = sorted(name[:-len(".task")] for name in names
                         if name.endswith(".task"))
        return [digest for digest in digests
                if not os.path.exists(self.result_path(digest))]

    # -- leases ------------------------------------------------------------

    def _next_nonce(self, worker: str) -> str:
        self._nonce_counter += 1
        return f"{worker}.{os.getpid()}.{self._nonce_counter}"

    def read_lease(self, digest: str) -> Optional[Lease]:
        """The current lease on ``digest``, or None (missing/unreadable)."""
        try:
            with open(self.lease_path(digest), "r",
                      encoding="utf-8") as handle:
                record = json.loads(handle.read())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict):
            return None
        try:
            return Lease(
                key_digest=digest,
                worker=str(record["worker"]),
                attempt=int(record["attempt"]),
                deadline=float(record["deadline"]),
                ttl=float(record["ttl"]),
                nonce=str(record["nonce"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _base_attempt(self, digest: str) -> int:
        """Failed attempts already recorded for ``digest`` (max a<N>)."""
        prefix = f"{digest}.a"
        best = 0
        try:
            names = os.listdir(os.path.join(self.root, ERRORS_DIR))
        except OSError:
            return 0
        for name in names:
            if not (name.startswith(prefix) and name.endswith(".json")):
                continue
            try:
                best = max(best, int(name[len(prefix):-len(".json")]))
            except ValueError:
                continue
        return best

    def claim(self, digest: str, worker: str,
              ttl: Optional[float] = None) -> Optional[Lease]:
        """Try to acquire the lease on ``digest``; None when lost.

        Fresh claims race to hard-link a fully written lease into place
        — the filesystem picks one winner.  An *expired* (or unreadable) lease is taken
        over with an atomic rewrite followed by a read-back: whoever's
        nonce survives owns the task.  The attempt number continues from
        the superseded lease and any recorded failed attempts, so
        reassignment counts exactly like a retry.
        """
        ttl = self.lease_ttl if ttl is None else ttl
        path = self.lease_path(digest)
        attempt = self._base_attempt(digest) + 1
        lease = Lease(key_digest=digest, worker=worker, attempt=attempt,
                      deadline=_wall_clock() + ttl, ttl=ttl,
                      nonce=self._next_nonce(worker))
        registry = telemetry.get_registry()
        if create_exclusive(path, lease.to_json().encode("utf-8")):
            registry.counter("queue.lease.claimed").inc()
            return lease

        current = self.read_lease(digest)
        now = _wall_clock()
        expired = current is None or current.deadline <= now
        injector = _fault_injector()
        if (not expired and injector is not None
                and injector.claim_steal(digest, attempt)):
            # Chaos hook: pretend the live lease expired — a duplicate
            # claim race.  Purity + first-writer-wins commitment make
            # this safe; the hook proves it.
            registry.counter("queue.lease.steal_injected").inc()
            expired = True
        if not expired:
            return None
        if current is not None:
            attempt = max(attempt, current.attempt + 1)
            lease = Lease(key_digest=digest, worker=worker,
                          attempt=attempt, deadline=now + ttl, ttl=ttl,
                          nonce=lease.nonce)
        _atomic_write(path, lease.to_json().encode("utf-8"))
        # Read-back verify: concurrent takeovers both replace; exactly
        # one nonce survives in the file and that claimer wins.
        survivor = self.read_lease(digest)
        if survivor is None or survivor.nonce != lease.nonce:
            registry.counter("queue.lease.lost_race").inc()
            return None
        registry.counter("queue.lease.taken_over").inc()
        return lease

    def renew(self, lease: Lease) -> Optional[Lease]:
        """Heartbeat: extend the deadline if the lease is still ours.

        Returns the renewed lease, or None when another worker has taken
        it over (the caller should finish quietly and let first-writer-
        wins commitment settle any duplicate work).
        """
        current = self.read_lease(lease.key_digest)
        if current is None or current.nonce != lease.nonce:
            telemetry.get_registry().counter("queue.lease.lost").inc()
            return None
        renewed = Lease(key_digest=lease.key_digest, worker=lease.worker,
                        attempt=lease.attempt,
                        deadline=_wall_clock() + lease.ttl,
                        ttl=lease.ttl, nonce=lease.nonce)
        _atomic_write(self.lease_path(lease.key_digest),
                      renewed.to_json().encode("utf-8"))
        telemetry.get_registry().counter("queue.lease.renewed").inc()
        return renewed

    def release(self, lease: Lease) -> None:
        """Drop the lease if it is still ours (best effort)."""
        current = self.read_lease(lease.key_digest)
        if current is not None and current.nonce == lease.nonce:
            try:
                os.unlink(self.lease_path(lease.key_digest))
            except OSError:
                pass

    # -- results -----------------------------------------------------------

    def commit_result(self, digest: str, envelope: Dict[str, Any]) -> bool:
        """Durably commit one outcome envelope; False when a twin won.

        ``os.link`` onto the final name is the at-most-once point: the
        first committer wins, every duplicate computation (takeover of a
        zombie's task, an injected claim steal) loses cleanly.  On
        filesystems without hard links the commit degrades to
        ``os.replace`` — last-writer-wins of *identical bytes'* worth of
        payload, so the contract still holds.
        """
        path = self.result_path(digest)
        data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        if not publish_linked(path, data):
            telemetry.get_registry().counter(
                "queue.results.duplicate").inc()
            return False
        telemetry.get_registry().counter("queue.results.committed").inc()
        return True

    def load_result(self, digest: str) -> Optional[Dict[str, Any]]:
        """Read one committed envelope; quarantines torn files."""
        path = self.result_path(digest)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, ValueError):
            self._quarantine(path, "result")
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("magic") != QUEUE_MAGIC
                or envelope.get("schema") != QUEUE_SCHEMA):
            self._quarantine(path, "result")
            return None
        return envelope

    def has_result(self, digest: str) -> bool:
        return os.path.exists(self.result_path(digest))

    # -- errors ------------------------------------------------------------

    def record_error(self, digest: str, attempt: int, worker: str,
                     error_type: str, message: str,
                     retryable: bool) -> None:
        """File one failed attempt (atomic; idempotent per attempt)."""
        record = json.dumps({
            "worker": worker,
            "attempt": attempt,
            "error_type": error_type,
            "error": message[:2000],
            "retryable": retryable,
        }, sort_keys=True)
        _atomic_write(self.error_path(digest, attempt),
                      record.encode("utf-8"))
        telemetry.get_registry().counter("queue.tasks.errored").inc()

    def load_errors(self, digest: str) -> List[dict]:
        """Every recorded failed attempt for ``digest``, by attempt."""
        prefix = f"{digest}.a"
        records = []
        try:
            names = os.listdir(os.path.join(self.root, ERRORS_DIR))
        except OSError:
            return []
        for name in sorted(names):
            if not (name.startswith(prefix) and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.root, ERRORS_DIR, name),
                          "r", encoding="utf-8") as handle:
                    record = json.loads(handle.read())
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    # -- shutdown ----------------------------------------------------------

    def request_shutdown(self) -> None:
        """Tell every worker to drain and exit."""
        _atomic_write(self.shutdown_path(), b"shutdown\n")

    def shutdown_requested(self) -> bool:
        return os.path.exists(self.shutdown_path())

    # -- internals ---------------------------------------------------------

    def _quarantine(self, path: str, what: str) -> None:
        """Rename an unreadable file aside so it can be rewritten."""
        try:
            os.replace(path, f"{path}.quarantine.{os.getpid()}")
        except OSError:
            return
        telemetry.get_registry().counter(
            f"queue.{what}.quarantined").inc()
        telemetry.get_logger("queue").warning(
            f"quarantined torn {what} file", file=os.path.basename(path))

    def __repr__(self) -> str:
        return f"WorkQueue({self.root!r})"


def _atomic_write(path: str, data: bytes) -> None:
    """tmp + fsync + ``os.replace``: readers see old bytes or new, never torn."""
    replace_atomic(path, data)


def _fault_injector():
    """The active chaos injector, if any (lazy import: tests/CI only)."""
    from repro.testing.faults import get_injector

    return get_injector()
