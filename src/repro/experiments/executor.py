"""Execution engine front-end: planning, dedup, resume and routing.

``generate_report`` (and ``repro-mnm run/all``) used to execute every
(workload × hierarchy × design-set) simulation strictly serially, even
though the passes are embarrassingly parallel.  This module plans the
independent tasks (:mod:`repro.experiments.planning`), deduplicates
them by cache key, skips whatever the pass cache already holds, and
hands the remainder to an
:class:`~repro.experiments.backends.base.ExecutorBackend`:

* :class:`~repro.experiments.backends.inprocess.InProcessBackend` for
  ``--jobs 1`` — serial, with the retry policy applied in-process;
* :class:`~repro.experiments.backends.pool.PoolBackend` for
  ``--jobs N`` — a local process pool with pool-rebuild/timeout/serial-
  degradation handling.

Determinism contract: the simulations are pure functions of their task
spec, workers neither share state nor depend on scheduling, and both
backends consume results in a fixed (submission) order — so the same
settings produce a bit-identical report for any ``--jobs`` value.
(Wall-clock span *timings* naturally vary between runs; the simulated
counts do not.)

Failure handling (see :mod:`repro.experiments.resilience` for policy):
a task raising a *retryable* error is retried with deterministic
backoff up to the policy's attempt budget — by the retry loop
in-process, by pool rebuilds on the pool backend; *fatal* errors abort
the run wrapped in a :class:`~repro.experiments.resilience.
TaskExecutionError` that names the task.  Under ``--run-dir`` every
completed task's result is on disk in the run directory's pass cache
the moment it finishes, and the run journal
(:mod:`repro.experiments.checkpoint`) is a view of that cache, so an
interrupted run re-run with the same ``--run-dir`` recomputes only
unfinished work.

The engine's own health is observable through ``executor.*`` counters
(``executor.tasks.completed`` / ``.retried`` / ``.timeout`` /
``.failed`` / ``.recovered`` / ``.resumed``, ``executor.pool.broken`` /
``.rebuilds``, ``executor.serial_fallback``,
``executor.serial.deadline_exceeded``) — all excluded from the
byte-identity contract, exactly like span timings.

Decision tracing (``--trace-out``) is the one telemetry piece that is
not parallel-safe — records from concurrent workers would interleave
nondeterministically — so the CLI forces ``--jobs 1`` when it is on.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List, Optional, Sequence

from repro import telemetry
from repro.experiments.backends.base import ExecutorBackend, task_identity
from repro.experiments.backends.inprocess import InProcessBackend
from repro.experiments.backends.pool import PoolBackend
from repro.experiments.base import ExperimentSettings
from repro.experiments.checkpoint import RunJournal
from repro.experiments.passcache import get_pass_cache
from repro.experiments.planning import Task
from repro.experiments.resilience import ExecutionPolicy
from repro.testing import faults


def default_jobs() -> int:
    """The ``--jobs`` auto value: one worker per *usable* CPU.

    ``os.cpu_count()`` reports the machine's CPUs even when the process
    is pinned to fewer (containers, ``taskset``, cgroup cpusets) — on a
    1-CPU allocation that made ``--jobs 0`` spin up a worker pool that
    only added IPC overhead.  The scheduler affinity mask is the real
    parallelism budget; when the platform cannot report one (macOS,
    Windows), fall back to ``os.cpu_count()``.  A result of 1 makes
    :func:`execute_tasks` run tasks in-process — no pool at all.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return os.cpu_count() or 1


def execute_tasks(
    tasks: Sequence[Task],
    jobs: int,
    policy: Optional[ExecutionPolicy] = None,
    journal: Optional[RunJournal] = None,
) -> int:
    """Run every not-yet-cached task and seed the pass cache.

    Tasks are deduplicated by cache key (experiments share passes —
    Figures 2 and 3, or the Figure 15/16/Table 2 baselines); tasks
    already cached — including those restored from a ``--run-dir`` run
    directory's disk cache — are skipped, so the backend only sees
    genuinely new work.  ``policy`` controls retries/timeouts/
    degradation (default: 3 attempts, no timeout); ``journal`` counts
    cached tasks it already holds as resumed and records each newly
    completed one.  ``jobs == 1`` runs in-process, more jobs a local
    pool.  Returns the number of tasks computed.
    """
    cache = get_pass_cache()
    if not cache.enabled:
        # --no-cache: workers could not hand results back through the
        # cache, so prefetching would just double the work.
        return 0
    policy = policy or ExecutionPolicy()
    registry = telemetry.get_registry()
    spans = telemetry.get_spans()
    pending: List[Task] = []
    seen = set()
    for task in tasks:
        key = task.cache_key()
        if key in seen:
            continue
        seen.add(key)
        if cache.lookup(key) is not None:
            if journal is not None:
                if journal.is_complete(key):
                    registry.counter("executor.tasks.resumed").inc()
                    # Attempt 0: never executed this run, replayed from
                    # the run directory's pass cache.
                    spans.record_task(task_identity(task)[0],
                                      task.describe(), 0, worker="resumed")
                else:
                    # Cached by this process since the journal opened:
                    # record it so the manifest stays complete.
                    journal.record(key)
            continue
        pending.append(task)
    if not pending:
        return 0

    jobs = max(1, min(jobs, len(pending)))
    backend: ExecutorBackend = (InProcessBackend() if jobs == 1
                                else PoolBackend(jobs=jobs))
    fault_spec = faults.resolve_fault_spec()
    if fault_spec:
        faults.configure_faults(fault_spec)
    try:
        with spans.span("executor.execute", tasks=len(pending),
                        backend=backend.name, jobs=jobs):
            backend.execute(pending, policy=policy, journal=journal,
                            fault_spec=fault_spec)
    finally:
        if fault_spec:
            faults.configure_faults(None)
    return len(pending)


def plan_experiments(
    experiment_ids: Sequence[str],
    settings: ExperimentSettings,
) -> List[Task]:
    """Collect the task specs of every plannable selected experiment.

    Each task is stamped with the experiment id that planned it — pure
    identity for error messages and the task ledger; cache keys stay
    structural, so shared passes still deduplicate across experiments.
    """
    # repro: allow[R002] lazy import of the experiment table: planners live in the registry ring, and deferring the import keeps workers from loading the report stack
    from repro.experiments.registry import get_experiment

    tasks: List[Task] = []
    for experiment_id in experiment_ids:
        entry = get_experiment(experiment_id)
        if entry.planner is not None:
            tasks.extend(
                replace(task, experiment_id=experiment_id)
                for task in entry.planner(settings)
            )
    return tasks


def prefetch_experiments(
    experiment_ids: Sequence[str],
    settings: Optional[ExperimentSettings],
    jobs: int,
    policy: Optional[ExecutionPolicy] = None,
    journal: Optional[RunJournal] = None,
) -> int:
    """Precompute the selected experiments' passes with ``jobs`` workers.

    After this returns, running the experiments serially hits the pass
    cache for every planned simulation; experiments without planners
    (``table1``, ``table3``, ``pareto``) are unaffected and still compute
    inline.  Returns the number of passes actually computed.
    """
    settings = settings or ExperimentSettings()
    return execute_tasks(plan_experiments(experiment_ids, settings), jobs,
                         policy=policy, journal=journal)
