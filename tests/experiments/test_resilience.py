"""Failure-policy unit tests and chaos tests for the experiment engine.

The contract under test, from strongest to weakest guarantee:

1. a run that weathers injected faults (worker raise / hang / death)
   produces a report **byte-identical** to a fault-free run;
2. transient failures cost retries, fatal ones abort immediately with
   the failing task's identity in the message;
3. repeated pool collapses degrade to in-process serial execution
   instead of crashing the run.

Injected faults are keyed on ``(task key, attempt)`` and stop firing
after ``fail_attempts``, so every chaos schedule here converges.
"""

import dataclasses
import json

import pytest

from repro import telemetry
from repro.experiments.base import ExperimentSettings
from repro.experiments.executor import execute_tasks, plan_experiments
from repro.experiments.passcache import configure_pass_cache, get_pass_cache
from repro.experiments.report import generate_report
from repro.experiments.resilience import (
    ExecutionPolicy,
    RetryPolicy,
    TaskExecutionError,
    TransientTaskError,
    is_retryable,
    policy_from_cli,
)
from repro.testing.faults import InjectedFault

TINY = ExperimentSettings(num_instructions=4000, warmup_fraction=0.25,
                          workloads=("twolf",))
TWO_WORKLOADS = dataclasses.replace(TINY, workloads=("twolf", "gcc"))

#: Zero backoff so retry-heavy tests don't sleep.
FAST = ExecutionPolicy(retry=RetryPolicy(max_attempts=3, backoff_base=0.0))


@pytest.fixture
def chaos(monkeypatch):
    """Install one fault-injection rule through ``REPRO_FAULTS``."""
    def install(**spec) -> None:
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(spec))
    return install


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    configure_pass_cache()
    yield
    configure_pass_cache()
    telemetry.reset()


class TestRetryPolicy:
    def test_delay_is_deterministic_across_instances(self):
        policy = RetryPolicy(seed=11)
        again = RetryPolicy(seed=11)
        delays = [policy.delay("task-key", attempt) for attempt in (1, 2, 3)]
        assert delays == [again.delay("task-key", a) for a in (1, 2, 3)]

    def test_backoff_grows_exponentially_with_bounded_jitter(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             jitter=0.5, backoff_cap=1000.0)
        for attempt in (1, 2, 3, 4):
            base = 0.1 * (2.0 ** (attempt - 1))
            assert base <= policy.delay("key", attempt) <= base * 1.5

    def test_cap_bounds_every_delay(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0,
                             backoff_cap=2.0)
        assert policy.delay("key", 9) == 2.0

    def test_different_seeds_jitter_differently(self):
        assert (RetryPolicy(seed=1).delay("key", 1)
                != RetryPolicy(seed=2).delay("key", 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            ExecutionPolicy(task_timeout=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_pool_failures=0)

    def test_policy_from_cli_counts_retries_beyond_the_first_try(self):
        policy = policy_from_cli(retries=0, task_timeout=30.0, seed=5)
        assert policy.retry.max_attempts == 1
        assert policy.retry.seed == 5
        assert policy.task_timeout == 30.0
        with pytest.raises(ValueError):
            policy_from_cli(retries=-1, task_timeout=None)


class TestClassification:
    def test_transient_failures_are_retryable(self):
        from concurrent.futures.process import BrokenProcessPool

        for exc in (BrokenProcessPool("pool died"), TimeoutError(),
                    TransientTaskError(), InjectedFault(), OSError(),
                    EOFError(), MemoryError(), ConnectionResetError()):
            assert is_retryable(exc), exc

    def test_task_definition_bugs_are_fatal(self):
        for exc in (ValueError("bad config"), TypeError(), KeyError("x"),
                    ZeroDivisionError()):
            assert not is_retryable(exc), exc

    def test_user_interruption_is_never_swallowed(self):
        assert not is_retryable(KeyboardInterrupt())
        assert not is_retryable(SystemExit(1))

    def test_task_execution_error_names_the_task(self):
        error = TaskExecutionError(
            "fig10: reference pass workload=twolf hierarchy=paper-5level",
            attempts=3, cause=TimeoutError("hung"))
        message = str(error)
        assert "fig10" in message
        assert "twolf" in message
        assert "3 attempts" in message
        assert "TimeoutError" in message


class _FlakyTask:
    """Minimal in-process Task stand-in: fails N times, then succeeds."""

    def __init__(self, failures, exc_factory):
        self.settings = TINY
        self.calls = 0
        self._failures = failures
        self._exc_factory = exc_factory

    def cache_key(self):
        return "test|flaky-task"

    def describe(self):
        return "test: flaky task workload=twolf"

    def execute(self):
        self.calls += 1
        if self.calls <= self._failures:
            raise self._exc_factory()
        return object()


class TestSerialRetries:
    def test_transient_failures_are_retried_until_success(self):
        registry = telemetry.enable_metrics()
        task = _FlakyTask(failures=2, exc_factory=TransientTaskError)
        assert execute_tasks([task], jobs=1, policy=FAST) == 1
        assert task.calls == 3
        counters = registry.snapshot()["counters"]
        assert counters["executor.tasks.retried"] == 2
        assert counters["executor.tasks.recovered"] == 1
        assert counters["executor.tasks.completed"] == 1

    def test_exhausted_retries_carry_the_task_identity(self):
        registry = telemetry.enable_metrics()
        task = _FlakyTask(failures=99, exc_factory=TransientTaskError)
        with pytest.raises(TaskExecutionError) as excinfo:
            execute_tasks([task], jobs=1, policy=FAST)
        assert excinfo.value.attempts == FAST.retry.max_attempts
        assert "flaky task workload=twolf" in str(excinfo.value)
        assert registry.snapshot()["counters"]["executor.tasks.failed"] == 1

    def test_serial_deadline_overrun_is_counted_not_enforced(self):
        """--task-timeout on the serial path: surfaced, never killing.

        In-process execution cannot preempt a running task, so the
        timeout degrades to a best-effort deadline check: the task still
        completes and counts, and the overrun lands in
        ``executor.serial.deadline_exceeded``.
        """
        registry = telemetry.enable_metrics()
        task = _FlakyTask(failures=0, exc_factory=TransientTaskError)
        policy = ExecutionPolicy(retry=FAST.retry, task_timeout=1e-6)
        assert execute_tasks([task], jobs=1, policy=policy) == 1
        counters = registry.snapshot()["counters"]
        assert counters["executor.serial.deadline_exceeded"] == 1
        assert counters["executor.tasks.completed"] == 1  # still completed

    def test_fatal_errors_abort_without_retrying(self):
        task = _FlakyTask(failures=99,
                          exc_factory=lambda: ValueError("bad config"))
        with pytest.raises(TaskExecutionError) as excinfo:
            execute_tasks([task], jobs=1, policy=FAST)
        assert task.calls == 1
        assert excinfo.value.attempts == 1
        assert "ValueError" in str(excinfo.value)

    def test_injected_raise_fault_on_a_real_task(self, chaos):
        registry = telemetry.enable_metrics()
        chaos(site="task", kind="raise", fail_attempts=2)
        tasks = plan_experiments(["fig10"], TINY)
        assert execute_tasks(tasks, jobs=1, policy=FAST) == len(tasks)
        counters = registry.snapshot()["counters"]
        assert counters["executor.tasks.retried"] == 2 * len(tasks)
        assert counters["executor.tasks.recovered"] == len(tasks)


class TestSpanAttribution:
    """Retried tasks must stay distinguishable in the span ledger."""

    def test_serial_retry_recorded_with_final_attempt(self):
        spans = telemetry.enable_spans()
        task = _FlakyTask(failures=2, exc_factory=TransientTaskError)
        assert execute_tasks([task], jobs=1, policy=FAST) == 1
        snapshot = spans.snapshot()
        ledger = snapshot["tasks"]
        assert len(ledger) == 1
        assert ledger[0]["attempt"] == 3        # succeeded on third try
        assert ledger[0]["worker"] == "serial"
        retries = [e for e in snapshot["events"]
                   if e["name"] == "executor.retry"]
        assert [e["attrs"]["attempt"] for e in retries] == [1, 2]
        assert all(e["attrs"]["task"] == ledger[0]["task_id"]
                   for e in retries)

    def test_injected_parallel_fault_attributed_in_ledger(self, chaos):
        spans = telemetry.enable_spans()
        chaos(site="task", kind="raise", fail_attempts=1)
        tasks = plan_experiments(["fig10"], TWO_WORKLOADS)
        assert execute_tasks(tasks, jobs=2, policy=FAST) == len(tasks)
        ledger = spans.snapshot()["tasks"]
        assert len(ledger) == len(tasks)
        assert all(entry["attempt"] == 2 for entry in ledger)
        assert all(entry["worker"] == "pool" for entry in ledger)
        # Each task's worker-side span came back tagged with its id.
        remote = {span["attrs"]["task"]
                  for span in spans.snapshot()["spans"]
                  if span.get("remote")}
        assert remote == {entry["task_id"] for entry in ledger}


class TestChaosParallel:
    """Injected worker faults vs. the pool: the report must not notice."""

    def test_worker_raise_report_is_byte_identical(self, chaos):
        clean = generate_report(TINY, experiments=["fig10"], jobs=1)
        configure_pass_cache()
        registry = telemetry.enable_metrics()
        chaos(site="task", kind="raise", fail_attempts=1)
        chaotic = generate_report(TINY, experiments=["fig10"],
                                  jobs=2, policy=FAST)
        assert chaotic == clean
        counters = registry.snapshot()["counters"]
        assert counters["executor.tasks.retried"] >= 1
        assert counters["executor.tasks.recovered"] >= 1

    def test_worker_death_breaks_the_pool_but_not_the_run(self, chaos):
        registry = telemetry.enable_metrics()
        chaos(site="task", kind="exit", fail_attempts=1)
        tasks = plan_experiments(["fig10"], TWO_WORKLOADS)
        assert len(tasks) >= 2  # keeps the run on the pool path
        assert execute_tasks(tasks, jobs=2, policy=FAST) == len(tasks)
        counters = registry.snapshot()["counters"]
        assert counters["executor.pool.broken"] >= 1
        assert counters["executor.pool.rebuilds"] >= 1
        # One count per collapsed pool, not one per task it failed.
        assert (counters["executor.pool.broken"]
                == counters["executor.pool.rebuilds"])
        assert counters["executor.tasks.completed"] == len(tasks)
        cache = get_pass_cache()
        assert all(cache.lookup(task.cache_key()) is not None
                   for task in tasks)

    def test_hung_worker_is_timed_out_and_retried(self, chaos):
        registry = telemetry.enable_metrics()
        chaos(site="task", kind="hang", fail_attempts=1, hang_seconds=30.0)
        tasks = plan_experiments(["fig10"], TWO_WORKLOADS)
        assert len(tasks) >= 2
        policy = ExecutionPolicy(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            task_timeout=5.0)
        assert execute_tasks(tasks, jobs=2, policy=policy) == len(tasks)
        counters = registry.snapshot()["counters"]
        assert counters["executor.tasks.timeout"] >= 1
        assert counters["executor.pool.rebuilds"] >= 1
        assert counters["executor.tasks.completed"] == len(tasks)

    def test_repeated_pool_collapse_degrades_to_serial(self, chaos):
        registry = telemetry.enable_metrics()
        chaos(site="task", kind="exit", fail_attempts=1)
        tasks = plan_experiments(["fig10"], TWO_WORKLOADS)
        assert len(tasks) >= 2
        policy = ExecutionPolicy(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            max_pool_failures=1)
        assert execute_tasks(tasks, jobs=2, policy=policy) == len(tasks)
        counters = registry.snapshot()["counters"]
        assert counters["executor.serial_fallback"] == 1
        assert counters["executor.tasks.completed"] == len(tasks)
