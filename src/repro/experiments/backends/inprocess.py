"""In-process serial backend: one task at a time, retries included.

The ``--jobs 1`` path and the serial-degradation fallback both land
here.  No subprocesses means no pool to break — but also no way to
preempt a hung task, which is why ``--task-timeout`` is only *checked*
between tasks on this path (see :func:`execute_one_serial`).
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro import telemetry
from repro.experiments.backends.base import task_identity
from repro.experiments.checkpoint import RunJournal
from repro.experiments.planning import Task
from repro.experiments.resilience import (
    ExecutionPolicy,
    TaskExecutionError,
    is_retryable,
)
from repro.testing import faults


def _sleep(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)


def execute_one_serial(
    task: Task,
    policy: ExecutionPolicy,
    journal: Optional[RunJournal],
    start_attempt: int = 1,
) -> None:
    """Run one task in-process with the retry policy applied.

    Used by the ``jobs == 1`` path and by the pool backend's
    serial-degradation fallback.  Failures carry the task's identity
    (experiment id, workload, hierarchy) via :class:`TaskExecutionError`,
    so one dead task out of hundreds is diagnosable from the message
    alone.  ``KeyboardInterrupt`` passes through untouched — the disk
    pass cache only ever publishes fully-written entries, so Ctrl-C
    here is always resumable.

    ``--task-timeout`` limitation: in-process execution cannot kill a
    task that is already running (there is no worker to terminate), so
    the timeout degrades to a *best-effort deadline check between
    tasks*: a task that ran longer than the budget still completes and
    counts, but the overrun is surfaced — an
    ``executor.serial.deadline_exceeded`` counter bump, a span event
    and a warning — instead of being silently unenforced.
    """
    registry = telemetry.get_registry()
    spans = telemetry.get_spans()
    key = task.cache_key()
    task_id, kind, experiment = task_identity(task)
    attempt = start_attempt
    while True:
        injector = faults.get_injector()
        if injector is not None:
            injector.set_attempt(attempt)
        try:
            if injector is not None:
                injector.on_task_start(key, attempt)
            started = time.perf_counter()
            with spans.span(f"task.{kind}", task=task_id,
                            attempt=attempt, experiment=experiment):
                task.execute()
        # repro: allow[R004] is_retryable() triages every failure; fatal ones re-raise as TaskExecutionError
        except Exception as exc:
            if not is_retryable(exc) or attempt >= policy.retry.max_attempts:
                registry.counter("executor.tasks.failed").inc()
                spans.event("executor.failed", task=task_id, attempt=attempt)
                raise TaskExecutionError(task.describe(), attempt, exc) from exc
            registry.counter("executor.tasks.retried").inc()
            spans.event("executor.retry", task=task_id, attempt=attempt)
            _sleep(policy.retry.delay(key, attempt))
            attempt += 1
            continue
        if attempt > 1:
            registry.counter("executor.tasks.recovered").inc()
        registry.counter("executor.tasks.completed").inc()
        elapsed = time.perf_counter() - started
        if (policy.task_timeout is not None
                and elapsed > policy.task_timeout):
            # Best-effort deadline check: the task already finished (it
            # cannot be killed mid-flight in-process), so record the
            # overrun rather than pretend the timeout was enforced.
            registry.counter("executor.serial.deadline_exceeded").inc()
            spans.event("executor.serial_deadline", task=task_id,
                        elapsed=round(elapsed, 3),
                        timeout=policy.task_timeout)
            telemetry.get_logger("executor").warning(
                f"task ran {elapsed:.1f}s past the "
                f"{policy.task_timeout}s task timeout (in-process "
                "execution cannot preempt; see --task-timeout docs)",
                task=task_id)
        spans.record_task(task_id, task.describe(), attempt,
                          elapsed=elapsed, worker="serial")
        if journal is not None:
            journal.record(key, elapsed=elapsed)
        return


class InProcessBackend:
    """Serial execution in the calling process (the ``--jobs 1`` path)."""

    name = "inprocess"

    def execute(
        self,
        pending: List[Task],
        policy: ExecutionPolicy,
        journal: Optional[RunJournal],
        fault_spec: str,
    ) -> None:
        for task in pending:
            execute_one_serial(task, policy, journal)
