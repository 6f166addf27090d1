"""Tests for the parallel experiment executor.

The determinism contract under test: the same settings produce the same
report — byte for byte, and telemetry-counter for telemetry-counter —
whatever ``jobs`` is set to.
"""

import pytest

from repro import telemetry
from repro.experiments.base import ExperimentSettings
from repro.experiments.executor import (
    default_jobs,
    execute_tasks,
    plan_experiments,
    prefetch_experiments,
)
from repro.experiments.passcache import configure_pass_cache, get_pass_cache
from repro.experiments.report import generate_report

TINY = ExperimentSettings(num_instructions=4000, warmup_fraction=0.25,
                          workloads=("twolf",))
EXPERIMENTS = ["fig02", "fig10", "fig15"]


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts with an empty memory-only cache."""
    configure_pass_cache()
    yield
    configure_pass_cache()
    telemetry.reset()


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_default_jobs_respects_cpu_affinity(monkeypatch):
    """A process pinned to one CPU must not get a multi-worker default.

    ``os.cpu_count()`` sees the whole machine; the affinity mask is what
    the scheduler will actually give us (containers, taskset, cgroups).
    """
    import repro.experiments.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(executor_module.os, "sched_getaffinity",
                        lambda pid: {0}, raising=False)
    assert default_jobs() == 1


def test_default_jobs_falls_back_to_cpu_count(monkeypatch):
    """Platforms without sched_getaffinity still get one job per CPU."""
    import repro.experiments.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 6)
    monkeypatch.delattr(executor_module.os, "sched_getaffinity",
                        raising=False)
    assert default_jobs() == 6


def test_single_job_never_touches_the_process_pool(monkeypatch):
    """``--jobs 0`` resolving to 1 must run in-process, not via a pool.

    On a 1-CPU host the pool adds pure overhead (spawn + pickle + IPC)
    for zero parallelism; the executor is required to fall through to
    the serial path.  A pool constructor that explodes proves it.
    """
    import repro.experiments.backends.pool as pool_module

    def _no_pool(*_args, **_kwargs):
        raise AssertionError("jobs == 1 must not create a process pool")

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _no_pool)
    tasks = plan_experiments(["fig02"], TINY)
    assert execute_tasks(tasks, jobs=1) == len(
        {task.cache_key() for task in tasks})


def test_plan_covers_pass_and_core_tasks():
    tasks = plan_experiments(EXPERIMENTS, TINY)
    kinds = {type(task).__name__ for task in tasks}
    assert kinds == {"PassTask", "CoreTask"}


def test_serial_and_parallel_reports_are_byte_identical():
    serial = generate_report(TINY, experiments=EXPERIMENTS, jobs=1)
    configure_pass_cache()
    parallel = generate_report(TINY, experiments=EXPERIMENTS, jobs=2)
    assert parallel == serial


def test_prefetch_seeds_the_cache():
    tasks = plan_experiments(EXPERIMENTS, TINY)
    computed = prefetch_experiments(EXPERIMENTS, TINY, jobs=2)
    unique = {task.cache_key() for task in tasks}
    assert computed == len(unique)
    # Every planned task is now a memory hit...
    cache = get_pass_cache()
    assert all(cache.lookup(task.cache_key()) is not None for task in tasks)
    # ...so a second prefetch computes nothing.
    assert prefetch_experiments(EXPERIMENTS, TINY, jobs=2) == 0


def test_shared_passes_deduplicated():
    """fig02 and fig03 plan identical baseline passes — run once."""
    fig02 = plan_experiments(["fig02"], TINY)
    both = plan_experiments(["fig02", "fig03"], TINY)
    assert len(both) == 2 * len(fig02)
    assert execute_tasks(both, jobs=2) == len(fig02)


def test_disabled_cache_skips_prefetch():
    configure_pass_cache(enabled=False)
    assert prefetch_experiments(EXPERIMENTS, TINY, jobs=2) == 0


def _simulation_counters(snapshot):
    """The snapshot minus the executor's own health ledger.

    ``executor.*`` counters describe the execution *strategy* (how many
    tasks the pool computed, retried, resumed) and legitimately differ
    between ``jobs`` values; every simulation-derived instrument must
    still match exactly.
    """
    return {
        "counters": {name: value
                     for name, value in snapshot["counters"].items()
                     if not name.startswith("executor.")},
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
    }


def test_parallel_telemetry_merge_matches_serial():
    registry = telemetry.enable_metrics()
    generate_report(TINY, experiments=EXPERIMENTS, jobs=1)
    serial_snapshot = registry.snapshot()
    telemetry.reset()

    configure_pass_cache()
    registry = telemetry.enable_metrics()
    generate_report(TINY, experiments=EXPERIMENTS, jobs=2)
    parallel_snapshot = registry.snapshot()

    assert (_simulation_counters(parallel_snapshot)
            == _simulation_counters(serial_snapshot))
    assert serial_snapshot["counters"]  # non-trivial: metrics were recorded
    # The parallel run's own ledger: every unique task computed, none lost.
    tasks = plan_experiments(EXPERIMENTS, TINY)
    unique = {task.cache_key() for task in tasks}
    assert (parallel_snapshot["counters"]["executor.tasks.completed"]
            == len(unique))


def test_parallel_profiling_merge_counts_all_work():
    profiler = telemetry.enable_profiling()
    prefetch_experiments(["fig10"], TINY, jobs=2)
    assert "reference_pass" in profiler.snapshot()
