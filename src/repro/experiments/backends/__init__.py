"""Pluggable execution backends for the experiment engine.

:func:`repro.experiments.executor.execute_tasks` routes the
deduplicated task list, minus what the pass cache already holds, to
one of these:

* :class:`~repro.experiments.backends.inprocess.InProcessBackend` —
  serial, in the calling process (``--jobs 1``);
* :class:`~repro.experiments.backends.pool.PoolBackend` — a local
  :class:`~concurrent.futures.ProcessPoolExecutor` (``--jobs N``).

Both uphold the same contract (see
:mod:`repro.experiments.backends.base`): results merge in submission
order, so the report bytes are identical whichever backend ran them.
"""

from repro.experiments.backends.base import ExecutorBackend, task_identity
from repro.experiments.backends.inprocess import (
    InProcessBackend,
    execute_one_serial,
)
from repro.experiments.backends.pool import (
    PoolBackend,
    TaskOutcome,
    TelemetryFlags,
    run_task,
    terminate_pool,
)

__all__ = [
    "ExecutorBackend",
    "InProcessBackend",
    "PoolBackend",
    "TaskOutcome",
    "TelemetryFlags",
    "execute_one_serial",
    "run_task",
    "task_identity",
    "terminate_pool",
]
