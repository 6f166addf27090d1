"""Checkpoint/resume for experiment runs: the run journal.

A full reproduction run fans hundreds of simulation passes over a
process pool; an interruption (Ctrl-C, a kill, a crash) must not throw
the completed ones away.  ``repro-mnm run/all/report/search/multicore
--run-dir <dir>`` owns this layout::

    <dir>/passes/          # the disk pass cache (see passcache.py)
    <dir>/manifest.json    # the run manifest (see repro.obs.manifest)

The pass cache is the record of completed work.  An entry is named by
the SHA-256 of its task's cache key and lands on that name only once
fully written (temp file + ``os.link``), so its presence means the task
finished.  :class:`RunJournal` is a view of that directory and writes
nothing of its own.  A re-run skips every task whose result still reads
back from the pass cache and recomputes only the rest, producing a
report byte-identical to an uninterrupted run, because the cache is
content-addressed and the passes are pure.  An entry torn by a crash
reads back as a miss (quarantined and counted as
``cache.pass.disk.corrupt``) and costs one recomputed task.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from repro.experiments.passcache import key_digest, published_digests

#: The pass cache's directory inside a run directory.
PASSES_DIR = "passes"


class RunJournal:
    """The completed tasks of one run directory, keyed by digest.

    Entries are :func:`~repro.experiments.passcache.key_digest` values:
    the names of the task results in ``passes/``.  perfbench's
    ``search`` workload opens a ``RunJournal`` per operation, and its
    tracer counts :meth:`record` calls as ``experiments.tasks`` and reads
    their ``elapsed`` keyword, so the class, this module and that
    keyword stay.
    """

    def __init__(self, completed: Iterable[str] = ()) -> None:
        self._completed = set(completed)

    @classmethod
    def open(cls, run_dir: str) -> "RunJournal":
        """The journal of ``run_dir``, created on first use.

        Every entry already published in ``passes/`` counts as a
        completed task; temp and quarantined files do not.
        """
        os.makedirs(run_dir, exist_ok=True)
        return cls(published_digests(cls.passes_dir(run_dir)))

    @staticmethod
    def passes_dir(run_dir: str) -> str:
        """The pass-cache directory belonging to ``run_dir``."""
        return os.path.join(run_dir, PASSES_DIR)

    def is_complete(self, key: str) -> bool:
        """Whether the task with this cache key already completed."""
        return key_digest(key) in self._completed

    def __len__(self) -> int:
        return len(self._completed)

    def record(self, key: str, elapsed: Optional[float] = None) -> None:
        """Count one task complete; its result is already cached.

        ``elapsed`` (the task's compute seconds) is read only by
        perfbench's tracer; see the class docstring.
        """
        self._completed.add(key_digest(key))

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        pass
