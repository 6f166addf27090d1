"""Local process-pool backend (the classic ``--jobs N`` path).

Fans tasks over a :class:`concurrent.futures.ProcessPoolExecutor` and
merges results back **in submission order** — the determinism contract.
Pool-level failures (a broken pool, a ``--task-timeout`` teardown) cost
a round: the pool is rebuilt and only still-incomplete tasks resubmit;
after ``max_pool_failures`` consecutive collapses the backend degrades
to in-process serial execution instead of crashing the run.

:func:`run_task` is the worker-side entry point: it defines what
"execute a task with local telemetry" means in a pool process.
"""

from __future__ import annotations

import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.experiments.backends.base import task_identity
from repro.experiments.backends.inprocess import _sleep, execute_one_serial
from repro.experiments.checkpoint import RunJournal
from repro.experiments.passcache import configure_pass_cache, get_pass_cache
from repro.experiments.planning import Task
from repro.experiments.resilience import (
    ExecutionPolicy,
    TaskExecutionError,
    is_retryable,
)
from repro.testing import faults


@dataclass(frozen=True)
class TelemetryFlags:
    """Which telemetry pieces workers should record for the parent."""

    metrics: bool
    spans: bool = False


@dataclass
class TaskOutcome:
    """What a worker hands back for one executed task."""

    result: Any
    metrics: Optional[dict]
    elapsed: float = 0.0
    spans: Optional[dict] = None


def current_telemetry_flags() -> TelemetryFlags:
    """Flags describing what the calling process has enabled."""
    return TelemetryFlags(
        metrics=telemetry.get_registry().enabled,
        spans=telemetry.get_spans().enabled,
    )


def run_task(
    task: Task,
    attempt: int,
    flags: TelemetryFlags,
    cache_dir: Optional[str],
    cache_enabled: bool,
    fault_spec: str = "",
) -> TaskOutcome:
    """Worker entry point: execute one task with local telemetry.

    Runs in the pool process.  The worker gets its own registry (and
    span recorder when the parent is building a run manifest) so
    the returned snapshots contain exactly this task's recordings, and
    its own pass cache configured like the parent's — with a shared
    ``--cache-dir`` the worker itself persists the result to disk.  The
    fault spec and attempt number are forwarded explicitly so chaos
    injection works under any multiprocessing start method and converges
    as the parent retries.
    """
    configure_pass_cache(cache_dir=cache_dir, enabled=cache_enabled)
    injector = faults.configure_faults(fault_spec) if fault_spec else None
    registry = telemetry.enable_metrics() if flags.metrics else None
    spans = telemetry.enable_spans() if flags.spans else None
    try:
        if injector is not None:
            injector.set_attempt(attempt)
            injector.on_task_start(task.cache_key(), attempt)
        started = time.perf_counter()
        task_id, kind, experiment = task_identity(task)
        with telemetry.get_spans().span(
                f"task.{kind}", task=task_id, attempt=attempt,
                experiment=experiment):
            result = task.execute()
        return TaskOutcome(
            result=result,
            metrics=registry.snapshot() if registry is not None else None,
            elapsed=time.perf_counter() - started,
            spans=spans.snapshot() if spans is not None else None,
        )
    finally:
        telemetry.reset()
        if fault_spec:
            faults.configure_faults(None)


#: Seconds :func:`terminate_pool` lets SIGTERMed workers exit before it
#: escalates to SIGKILL.
TERMINATE_GRACE_S = 2.0


def _default_sigterm() -> None:
    """Pool initializer: give the worker SIGTERM's default disposition.

    Fork-started workers inherit the parent's handlers, and the CLI maps
    SIGTERM to ``KeyboardInterrupt``.  A worker that kept that mapping
    would turn :func:`terminate_pool`'s SIGTERM into an exception inside
    its task, report it, and keep running.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool that may contain hung or dead workers.

    ``shutdown(wait=True)`` would block forever on a hung worker, so the
    teardown cancels queued work and terminates any process still alive,
    then kills whatever has not exited within :data:`TERMINATE_GRACE_S`.
    (``_processes`` is private API, hence the defensive ``getattr`` — a
    missing attribute degrades to plain shutdown, never to a crash.)
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except OSError:
            pass
    deadline = time.monotonic() + TERMINATE_GRACE_S
    for process in processes:
        try:
            process.join(max(deadline - time.monotonic(), 0.0))
            if process.is_alive():
                process.kill()
                process.join(TERMINATE_GRACE_S)
        except OSError:
            pass


class PoolBackend:
    """Execution over a local :class:`ProcessPoolExecutor`."""

    name = "pool"

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs

    def execute(
        self,
        pending: List[Task],
        policy: ExecutionPolicy,
        journal: Optional[RunJournal],
        fault_spec: str,
    ) -> None:
        """Fan tasks over worker pools until every one has completed.

        One pool per *round*: a round submits every incomplete task, then
        consumes results in submission order (the determinism contract).
        A pool-level failure — a broken pool, or a teardown forced by a
        task exceeding ``task_timeout`` — ends the round; the pool is
        rebuilt and only the still-incomplete tasks are resubmitted.
        Every task sent back to the queue after a pool failure is charged
        one attempt, both so injected faults keyed on attempt numbers
        converge and so a genuinely hung task cannot retry forever.
        """
        jobs = self.jobs
        registry = telemetry.get_registry()
        spans = telemetry.get_spans()
        cache = get_pass_cache()
        logger = telemetry.get_logger("executor")
        flags = current_telemetry_flags()
        attempts: Dict[int, int] = {index: 1 for index in range(len(pending))}
        incomplete: List[Tuple[int, Task]] = list(enumerate(pending))
        pool_failures = 0

        while incomplete:
            if pool_failures >= policy.max_pool_failures:
                registry.counter("executor.serial_fallback").inc()
                spans.event("executor.serial_fallback",
                            pool_failures=pool_failures,
                            remaining=len(incomplete))
                logger.warning(
                    "degrading to in-process serial execution after "
                    f"{pool_failures} consecutive pool failures",
                    remaining=len(incomplete))
                for index, task in incomplete:
                    execute_one_serial(task, policy, journal,
                                       start_attempt=attempts[index])
                return

            pool = ProcessPoolExecutor(max_workers=min(jobs, len(incomplete)),
                                       initializer=_default_sigterm)
            submitted: List[Tuple[int, Task, Any]] = []
            next_round: List[Tuple[int, Task]] = []
            pool_broken = False
            timed_out = False
            retry_delay = 0.0
            aborted = False
            try:
                for index, task in incomplete:
                    try:
                        future = pool.submit(
                            run_task, task, attempts[index], flags,
                            cache.cache_dir, cache.enabled, fault_spec)
                    except (BrokenProcessPool, RuntimeError):
                        if not pool_broken:
                            registry.counter("executor.pool.broken").inc()
                        pool_broken = True
                        next_round.append((index, task))
                        continue
                    submitted.append((index, task, future))

                # Consume in submission order — merged telemetry and cache
                # contents end up independent of worker scheduling.
                for index, task, future in submitted:
                    key = task.cache_key()
                    task_id = task_identity(task)[0]
                    if pool_broken or timed_out:
                        # The pool is compromised: harvest only results
                        # that already finished, never start a fresh wait.
                        if not future.done():
                            next_round.append((index, task))
                            continue
                    try:
                        outcome = future.result(timeout=policy.task_timeout)
                    except FutureTimeoutError:
                        registry.counter("executor.tasks.timeout").inc()
                        spans.event("executor.timeout", task=task_id,
                                    attempt=attempts[index])
                        if attempts[index] >= policy.retry.max_attempts:
                            registry.counter("executor.tasks.failed").inc()
                            timed_out = True
                            raise TaskExecutionError(
                                task.describe(), attempts[index],
                                TimeoutError(
                                    f"task exceeded the "
                                    f"{policy.task_timeout}s "
                                    "task timeout on every attempt"))
                        registry.counter("executor.tasks.retried").inc()
                        timed_out = True
                        next_round.append((index, task))
                        continue
                    except BrokenProcessPool:
                        # One collapse fails every future still in the
                        # pool: count the pool once, the tasks as spans.
                        if not pool_broken:
                            registry.counter("executor.pool.broken").inc()
                        spans.event("executor.pool_broken", task=task_id,
                                    attempt=attempts[index])
                        pool_broken = True
                        next_round.append((index, task))
                        continue
                    # repro: allow[R004] is_retryable() triages worker failures; fatal ones re-raise as TaskExecutionError
                    except Exception as exc:
                        # The task itself raised in the worker.
                        if (not is_retryable(exc)
                                or attempts[index] >= policy.retry.max_attempts):
                            registry.counter("executor.tasks.failed").inc()
                            spans.event("executor.failed", task=task_id,
                                        attempt=attempts[index])
                            aborted = True
                            raise TaskExecutionError(
                                task.describe(), attempts[index], exc) from exc
                        registry.counter("executor.tasks.retried").inc()
                        spans.event("executor.retry", task=task_id,
                                    attempt=attempts[index])
                        retry_delay = max(
                            retry_delay,
                            policy.retry.delay(key, attempts[index]))
                        attempts[index] += 1
                        next_round.append((index, task))
                        continue
                    cache.seed(key, outcome.result)
                    if journal is not None:
                        journal.record(key, elapsed=outcome.elapsed)
                    if outcome.metrics is not None:
                        # Merged in submission order; the span ledger
                        # (below) keeps the per-task attribution the
                        # aggregate merge would otherwise lose.
                        registry.merge_snapshot(outcome.metrics)
                    if outcome.spans is not None:
                        spans.merge_remote(outcome.spans, task=task_id,
                                           attempt=attempts[index],
                                           worker="pool")
                    spans.record_task(task_id, task.describe(),
                                      attempts[index],
                                      elapsed=outcome.elapsed,
                                      worker="pool")
                    if attempts[index] > 1:
                        registry.counter("executor.tasks.recovered").inc()
                    registry.counter("executor.tasks.completed").inc()
            except BaseException:
                aborted = True
                terminate_pool(pool)
                raise
            finally:
                if not aborted:
                    if pool_broken or timed_out:
                        terminate_pool(pool)
                    else:
                        pool.shutdown(wait=True)

            if pool_broken or timed_out:
                pool_failures += 1
                registry.counter("executor.pool.rebuilds").inc()
                spans.event("executor.pool_rebuild",
                            cause=("broken pool" if pool_broken
                                   else "task timeout"),
                            resubmitted=len(next_round))
                # Charge one attempt to everything going another round:
                # the culprit cannot be told apart from tasks queued
                # behind it, and a fresh pool re-runs them all from
                # scratch anyway.
                for index, _task in next_round:
                    attempts[index] += 1
                logger.warning(
                    "worker pool failed; rebuilding and resubmitting "
                    f"{len(next_round)} incomplete tasks",
                    cause="broken pool" if pool_broken else "task timeout",
                    consecutive_failures=pool_failures)
            else:
                pool_failures = 0
            _sleep(retry_delay)
            incomplete = next_round
