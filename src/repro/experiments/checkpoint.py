"""Checkpoint/resume for experiment runs: the run journal.

A full reproduction run fans hundreds of simulation passes over a
process pool; an interruption (Ctrl-C, a kill, a crash) used to throw
all completed work away.  The journal makes runs *restartable*: a
schema-versioned JSONL manifest records every completed task — its
cache-key digest, which is also the filename of the result pickle in the
run directory's pass cache — and is flushed after **every** task, so the
instant a pass finishes it is durable.

``repro-mnm run/all/report/search/multicore --run-dir <dir>`` owns this
layout (with the run manifest beside it, see :mod:`repro.obs.manifest`)::

    <dir>/journal.jsonl     # header line + one line per completed task
    <dir>/passes/           # the disk pass cache (see passcache.py)

The first invocation creates the directory; a re-run after an
interruption loads the journal, skips every journaled task whose result
is still readable from the pass cache, and recomputes only the rest —
producing a report byte-identical to an uninterrupted run, because the
cache is content-addressed and the passes are pure.

Write discipline (the same contract the pass cache pins):

* the header is written once, atomically, via temp file + ``os.replace``;
* entries are appended as single ``\\n``-terminated lines, flushed and
  fsynced per entry.  A crash can truncate at most the *last* line;
  :meth:`RunJournal.load` reads the file as raw bytes and skips any
  line that does not decode or parse — truncating an entry at *any*
  byte offset (including inside a multibyte UTF-8 sequence) costs one
  recomputed task plus a ``checkpoint.journal.torn`` counter bump and a
  warning, never a misread journal or a crashed resume.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, Optional

from repro import telemetry
from repro.experiments.atomic import replace_atomic
from repro.experiments.passcache import key_digest

#: Journal header magic + layout version.  Bump the version whenever the
#: entry shape changes; an old journal then reads as empty (every task
#: recomputes — correct, just slower) instead of being misparsed.
JOURNAL_MAGIC = "repro-run-journal"
JOURNAL_SCHEMA = 1

#: The journal's filename inside a run directory.
JOURNAL_NAME = "journal.jsonl"

#: The pass cache's directory inside a run directory.
PASSES_DIR = "passes"


def _fault_injector():
    """The active chaos injector, if any (lazy import: tests/CI only)."""
    from repro.testing.faults import get_injector

    return get_injector()


class RunJournal:
    """Append-only manifest of completed task cache-keys for one run dir.

    Entries are keyed by the task's :func:`~repro.experiments.passcache.
    key_digest`, so ``is_complete`` never needs the (huge) raw key on
    disk and each entry names its result file in ``passes/``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._completed: Dict[str, dict] = {}
        self._handle = None

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, run_dir: str) -> "RunJournal":
        """Load (or create) the journal of ``run_dir``.

        Creates the directory and an empty journal on first use; loads
        and keeps appending to an existing one on resume.
        """
        os.makedirs(run_dir, exist_ok=True)
        journal = cls(os.path.join(run_dir, JOURNAL_NAME))
        journal.load()
        return journal

    @staticmethod
    def passes_dir(run_dir: str) -> str:
        """The pass-cache directory belonging to ``run_dir``."""
        return os.path.join(run_dir, PASSES_DIR)

    # -- reading -----------------------------------------------------------

    def load(self) -> int:
        """(Re)read the journal file; returns the completed-entry count.

        A missing file means a fresh run.  A bad header (wrong magic or
        schema) means a journal from another layout: it is renamed aside
        (``.stale``) and treated as empty, so resuming against it
        recomputes rather than trusting entries of unknown shape.

        Torn lines — a crash mid-append, at any byte offset — are
        skipped, counted (``checkpoint.journal.torn``) and warned about.
        The file is read as *bytes* and decoded per line: a truncation
        inside a multibyte UTF-8 sequence used to raise
        ``UnicodeDecodeError`` out of a resumed run; now it is just one
        more torn line.
        """
        self._completed.clear()
        spans = telemetry.get_spans()
        torn = 0
        with spans.span("checkpoint.load", path=self.path):
            try:
                with open(self.path, "rb") as handle:
                    lines = handle.read().split(b"\n")
            except FileNotFoundError:
                return 0
            if not lines or not self._valid_header(lines[0]):
                telemetry.get_logger("checkpoint").warning(
                    "ignoring journal with unknown header/schema",
                    path=self.path)
                spans.event("checkpoint.stale_journal", path=self.path)
                try:
                    os.replace(self.path, self.path + ".stale")
                except OSError:
                    pass
                return 0
            for line in lines[1:]:
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    torn += 1
                    continue
                digest = (entry.get("key_sha")
                          if isinstance(entry, dict) else None)
                if not digest:
                    torn += 1
                    continue
                self._completed[digest] = entry
        if torn:
            telemetry.get_registry().counter(
                "checkpoint.journal.torn").inc(torn)
            spans.event("checkpoint.torn_lines", count=torn,
                        path=self.path)
            telemetry.get_logger("checkpoint").warning(
                f"skipped {torn} torn journal line(s); the affected "
                "task(s) will recompute", path=self.path)
        if self._completed:
            spans.event("checkpoint.resumed", completed=len(self._completed))
        return len(self._completed)

    @staticmethod
    def _valid_header(line) -> bool:
        try:
            header = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return False
        return (isinstance(header, dict)
                and header.get("magic") == JOURNAL_MAGIC
                and header.get("schema") == JOURNAL_SCHEMA)

    def is_complete(self, key: str) -> bool:
        """Whether the task with this cache key already completed."""
        return key_digest(key) in self._completed

    def __len__(self) -> int:
        return len(self._completed)

    def entries(self) -> Iterator[dict]:
        """The completed entries, in no particular order."""
        return iter(self._completed.values())

    # -- writing -----------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._handle is not None:
            return
        if not os.path.exists(self.path):
            self._write_header()
        # repro: allow[R009] fsync-per-entry append journal, torn tails recovered on replay
        self._handle = open(self.path, "a", encoding="utf-8")

    def _write_header(self) -> None:
        header = json.dumps(
            {"magic": JOURNAL_MAGIC, "schema": JOURNAL_SCHEMA},
            sort_keys=True)
        replace_atomic(self.path, (header + "\n").encode("utf-8"))

    def record(self, key: str, description: str = "",
               elapsed: Optional[float] = None) -> None:
        """Durably journal one completed task (flush + fsync per entry).

        Idempotent per key: re-recording a task already journaled (a
        resumed run re-seeding its cache) is a no-op.
        """
        digest = key_digest(key)
        if digest in self._completed:
            return
        entry: dict = {"key_sha": digest}
        if description:
            entry["task"] = description
        if elapsed is not None:
            entry["elapsed_s"] = round(elapsed, 3)
        self._ensure_open()
        line = json.dumps(entry, sort_keys=True) + "\n"
        injector = _fault_injector()
        if injector is not None and injector.should_tear(
                "journal-write", digest):
            # Chaos hook: "crash" mid-append — a newline-less prefix
            # lands on disk.  This run keeps its in-memory completion
            # (matching a real crash, where the process is gone); a
            # resume must skip the torn line and recompute the task.
            line = line[: max(1, len(line) // 2)]
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._completed[digest] = entry

    def close(self) -> None:
        """Close the append handle (the journal object stays readable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RunJournal({self.path!r}, completed={len(self)})"
