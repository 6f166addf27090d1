"""The pluggable executor-backend contract.

:func:`repro.experiments.executor.execute_tasks` runs its tasks through
one of two execution strategies (in-process serial, local
``ProcessPoolExecutor``).  This package puts the strategy behind one
small protocol, so the dedup/resume/fault plumbing in ``execute_tasks``
never depends on which strategy runs the tasks.

Every backend receives the same inputs and owes the same contract:

* ``pending`` is the deduplicated task list, minus what the pass cache
  already holds, in **submission order** — the order every backend must
  merge results, telemetry snapshots and journal records in, so the run is
  byte-identical to a serial one regardless of substrate or scheduling;
* each completed task's result lands in the process-wide pass cache
  (``store`` for in-process execution, ``seed`` for results computed in
  another process) and, when a journal is given, is recorded in it the
  moment the backend accepts it;
* a task failing fatally (or exhausting the policy's attempt budget)
  raises :class:`~repro.experiments.resilience.TaskExecutionError`;
  ``KeyboardInterrupt`` propagates untouched so ``--run-dir`` runs stay
  resumable;
* backend health telemetry lives under ``executor.*`` counters, which
  — like span timings — are excluded from the byte-identity contract.

Layering note: backend modules import the foundations (``planning``,
``passcache``, ``checkpoint``, ``resilience``) but never
``repro.experiments.executor`` or the package facade — R002 enforces
this as an intra-package ring DAG (see
:mod:`repro.staticcheck.rules.layering`).
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple, runtime_checkable

from repro.experiments.checkpoint import RunJournal
from repro.experiments.planning import Task
from repro.experiments.resilience import ExecutionPolicy


@runtime_checkable
class ExecutorBackend(Protocol):
    """What :func:`~repro.experiments.executor.execute_tasks` plugs in.

    Implementations: :class:`~repro.experiments.backends.inprocess.
    InProcessBackend`, :class:`~repro.experiments.backends.pool.
    PoolBackend`.
    """

    #: Short name used in spans, logs and error messages.
    name: str

    def execute(
        self,
        pending: List[Task],
        policy: ExecutionPolicy,
        journal: Optional[RunJournal],
        fault_spec: str,
    ) -> None:
        """Run every task in ``pending`` to completion (or raise)."""
        ...  # pragma: no cover - protocol body


def task_identity(task: Task) -> Tuple[str, str, str]:
    """``(task_id, kind, experiment)`` for span/ledger attribution.

    Duck-typed on purpose: the executor's task contract is
    ``cache_key``/``describe``/``execute``, and test doubles exercising
    retry/timeout paths implement exactly that.  Attribution falls back
    to a digest of the cache key rather than demanding the richer
    :class:`~repro.experiments.planning.PassTask` surface.
    """
    getter = getattr(task, "task_id", None)
    if getter is not None:
        task_id = getter()
    else:
        from repro.experiments.passcache import key_digest
        from repro.experiments.planning import TASK_ID_CHARS

        task_id = key_digest(task.cache_key())[:TASK_ID_CHARS]
    return (task_id,
            getattr(task, "kind", "task"),
            getattr(task, "experiment_id", "?"))
