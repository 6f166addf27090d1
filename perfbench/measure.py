"""One benchmark run: set-up, closed-loop rounds, the gate, the metrics.

A run first sets up :data:`TRACE_SETS` trace sets, timing each
(``setup_s`` takes the median), then runs whole rounds that spread their
operations over the sets, and stops at the round boundary nearest
``seconds`` — after at least :data:`MIN_OPERATIONS` operations.  Every operation is timed on its own and its result is
inspected between operations.  Every duration behind an end-to-end metric
is scaled to a reference host speed (:mod:`perfbench.clock`); the host
seconds are kept in the notes.  With tracing on, one set is used and
every operation runs twice in a row, once untraced and once traced
(alternating which goes first), and the metrics are the per-layer ones
(:data:`PER_LAYER`) instead of the end-to-end ones (:data:`END_TO_END`).

The correctness gate fails an operation, counts it in ``error_rate`` and
makes the run exit non-zero when it raises, when any design reports a
soundness violation, when its digest differs from the same operation's
digest in the first run of the set (the ledger in the results
directory, keyed by workload, seed and input sizes) or in this run's
first execution of it, and — on ``sweep`` — when the fast engine's
snapshot of a stream prefix differs from the interpreter oracle's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import clear_pass_cache
from repro.workloads import clear_trace_cache

from perfbench import clock
from perfbench.tracing import LAYERS, LayerTracer
from perfbench.workloads import (
    SCALES,
    WORKLOADS,
    Inspection,
    Prepared,
    reference_count,
    simulated_counts,
)

#: (name, unit, better) of every end-to-end metric, all host time.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("design_refs_per_s", "1/s", "higher"),
    ("op_s.p50", "s", "lower"),
    ("op_s.tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric of a traced run.  Times
#: and counts are per round; ``*.self_s`` excludes the layers below.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.generate_s", "s", "lower"),
    ("workloads.refs", "count", "lower"),
    ("cache.access_s", "s", "lower"),
    ("cache.accesses", "count", "lower"),
    ("cache.ns_per_access", "ns", "lower"),
    ("cache.misses", "count", "lower"),
    ("core.query_s", "s", "lower"),
    ("core.queries", "count", "lower"),
    ("core.batch_calls", "count", "lower"),
    ("core.batch_len_mean", "count", "higher"),
    ("core.invalidate_calls", "count", "lower"),
    ("core.updates", "count", "lower"),
    ("core.coverage_pct", "%", "higher"),
    ("core.violations", "count", "lower"),
    ("power.account_s", "s", "lower"),
    ("power.accounts", "count", "lower"),
    ("analysis.record_s", "s", "lower"),
    ("analysis.records", "count", "lower"),
    ("cpu.instructions", "count", "lower"),
    ("cpu.ns_per_instr", "ns", "lower"),
    ("cpu.ipc", "ratio", "higher"),
    ("multicore.access_s", "s", "lower"),
    ("multicore.accesses", "count", "lower"),
    ("multicore.coherence_invalidations", "count", "lower"),
    ("multicore.back_invalidations", "count", "lower"),
    ("multicore.cross_core_invalidations", "count", "lower"),
    ("experiments.tasks", "count", "lower"),
    ("experiments.passcache.hit_ratio", "ratio", "higher"),
    ("experiments.passcache_s", "s", "lower"),
    ("experiments.journal_s", "s", "lower"),
    ("experiments.executor.overhead_s", "s", "lower"),
    ("search.sampler_s", "s", "lower"),
    ("search.candidates.evaluated", "count", "lower"),
    ("search.candidates.deduped", "count", "higher"),
    ("search.candidates.pruned", "count", "higher"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.untraced_round_s", "s", "lower"),
    ("trace.traced_round_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

#: Trace sets per untraced run, all set up before the first round; every
#: round spreads its operations over them (see :meth:`_Runner.round`).
TRACE_SETS = 3

#: Candidate tail percentiles, highest first.  The steps are coarse so a
#: round more or less in a run does not change which one is reported.
TAIL_PERCENTILES = (99, 90, 75, 50)

#: Every tail needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: A run goes on past its deadline until it has timed this many
#: operations, so a slow host never drops the tail below p75.
MIN_OPERATIONS = 50


@dataclass
class Execution:
    """One timed operation."""

    name: str
    trace_set: int
    #: Host seconds.
    seconds: float
    #: Index of the kernel sample taken just before it (the one just
    #: after it is the next).
    sample: int
    traced: bool
    inspection: Optional[Inspection] = None
    failure: str = ""
    #: ``seconds`` scaled to the reference host speed, once the samples
    #: after it are in (:meth:`_Runner.normalise`).
    normalised: float = 0.0


@dataclass
class RunResult:
    """Everything a run measured and checked."""

    workload: str
    seed: int
    traced: bool
    scale: str
    rounds: int
    executions: List[Execution]
    metrics: Dict[str, float]
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.executions)

    @property
    def failed(self) -> int:
        return sum(1 for execution in self.executions if execution.failure)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def tail(samples: Sequence[float]) -> Tuple[int, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of
    :data:`TAIL_PERCENTILES` with :data:`TAIL_BEYOND` samples beyond it,
    else the median."""
    ordered = sorted(samples)
    if len(ordered) < 2:
        value = ordered[0] if ordered else 0.0
        return 50, value, 0
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    for percentile in TAIL_PERCENTILES:
        value = cuts[percentile - 1]
        beyond = sum(1 for sample in ordered if sample > value)
        if beyond >= TAIL_BEYOND or percentile == 50:
            return percentile, value, beyond
    raise AssertionError("unreachable: the ladder ends at the median")


class DigestLedger:
    """Per-operation digests of the first run of a set, kept on disk."""

    def __init__(self, path: str, key: str) -> None:
        self.path = path
        self.key = key
        self._all: Dict[str, Dict[str, str]] = {}
        if os.path.exists(path):
            with open(path) as handle:
                self._all = json.load(handle)
        self.recorded = dict(self._all.get(key, {}))

    def reference(self, name: str, digest: str) -> str:
        """The digest ``name`` must have (recording it on first sight)."""
        return self.recorded.setdefault(name, digest)

    def save(self) -> None:
        """Keep the digests, first sightings included, for later runs."""
        self._all[self.key] = self.recorded
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self._all, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class _Runner:
    """Runs rounds of prepared trace sets and checks each operation."""

    #: Kernel samples on each side of an execution, besides the two that
    #: bracket it, whose median scales it.  A sample alone is noisy; a
    #: wider window would blur the host's speed changes, which come
    #: every second or few.
    WINDOW = 1

    def __init__(self, ledger: DigestLedger) -> None:
        self.ledger = ledger
        self.executions: List[Execution] = []
        #: Kernel samples in the order taken, one between executions.
        self.samples: List[float] = []

    def normalise(self) -> None:
        """Scale every execution by the kernel samples around it."""
        for execution in self.executions:
            low = max(0, execution.sample - self.WINDOW)
            window = self.samples[low:execution.sample + 2 + self.WINDOW]
            execution.normalised = clock.normalise(execution.seconds, window)

    def round(self, sets: Sequence[Prepared], number: int,
              tracer: Optional[LayerTracer] = None) -> Tuple[float, float]:
        """Round ``number``; returns the summed host seconds of its
        untraced and of its traced executions.

        Operation ``i`` runs on trace set ``(i + number) % len(sets)``,
        so even a run of one round spreads every app's operations over
        the sets, and over rounds each operation meets every set.  With a
        tracer every operation runs twice in a row, untraced and traced,
        even-numbered ones untraced first and odd ones traced first, so
        the pair sees one host speed and neither side is always the
        warmer one.
        """
        gc.collect()
        sums = [0.0, 0.0]
        self.samples.append(clock.sample())
        for index in range(len(sets[0].operations)):
            trace_set = (index + number) % len(sets)
            operation = sets[trace_set].operations[index]
            tracers = ((None,) if tracer is None
                       else (None, tracer) if index % 2 == 0
                       else (tracer, None))
            for each in tracers:
                execution = self._execute(operation, trace_set, each)
                sums[execution.traced] += execution.seconds
        return sums[0], sums[1]

    def _execute(self, operation, trace_set: int,
                 tracer: Optional[LayerTracer]) -> Execution:
        """Time and check one operation, and take a kernel sample right
        after it."""
        name = operation.name
        clear_pass_cache()
        outcome, failure = None, ""
        with (tracer.installed() if tracer is not None
              else contextlib.nullcontext()):
            started = time.perf_counter()
            try:
                outcome = operation.run()
            except Exception:  # recorded as a failed operation
                failure = self._reason(name, trace_set)
            seconds = time.perf_counter() - started
        self.samples.append(clock.sample())
        execution = Execution(name, trace_set, seconds,
                              len(self.samples) - 2,
                              traced=tracer is not None, failure=failure)
        self.executions.append(execution)
        if failure:
            return execution
        if tracer is not None:
            tracer.merge_worker_dumps()
        try:
            inspection = operation.inspect(outcome)
        except Exception:  # an unreadable result fails the operation
            execution.failure = self._reason(name, trace_set)
            return execution
        execution.inspection = inspection
        if inspection.violations:
            execution.failure = f"{inspection.violations} soundness violations"
        elif (self.ledger.reference(f"{trace_set}/{name}", inspection.digest)
              != inspection.digest):
            execution.failure = "simulated results differ from the first run's"
        return execution

    @staticmethod
    def _reason(name: str, trace_set: int) -> str:
        reason = traceback.format_exc()
        print(f"perfbench: {trace_set}/{name} failed\n{reason}",
              file=sys.stderr)
        return reason.strip().splitlines()[-1]

    def check_oracle(self, sets: Sequence[Prepared]) -> None:
        """Fail every execution of an operation whose oracle check fails.

        Set ``k`` of ``K`` checks every ``K``-th operation from the
        ``k``-th, so each operation is checked once, on one set's traces;
        a mismatch fails the operation on every set.
        """
        mismatched = set()
        for index, prepared in enumerate(sets):
            if prepared.oracle is not None:
                mismatched.update(prepared.oracle(
                    [operation.name for operation
                     in prepared.operations[index::len(sets)]]))
        for execution in self.executions:
            if execution.name in mismatched and not execution.failure:
                execution.failure = ("fast-engine snapshot differs from the "
                                     "interpreter oracle")


def trace_seed(seed: int, trace_set: int) -> int:
    """Trace seed of one trace set of a run (cores add their index)."""
    return seed * 100 + 10 * trace_set


def run(workload: str, seed: int, seconds: float, traced: bool,
        scale_name: str, import_s: float, results_dir: str) -> RunResult:
    """One benchmark run of ``workload``; see the module docstring."""
    spec = WORKLOADS[workload]
    scale = SCALES[scale_name]
    os.makedirs(results_dir, exist_ok=True)
    workdir = os.path.join(results_dir, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    sizes = ",".join(f"{name}={value}" for name, value
                     in dataclasses.asdict(scale).items())
    ledger = DigestLedger(os.path.join(results_dir, "digests.json"),
                          f"{workload}|seed={seed}|{sizes}")
    runner = _Runner(ledger)
    rounds: List[Tuple[float, float]] = []
    tracer = LayerTracer(worker_dir=workdir) if traced else None
    try:
        # Imports ran just before; the first kernel sample scales them.
        import_s = clock.normalise(import_s, [clock.sample()])
        clear_trace_cache()
        sets: List[Prepared] = []
        setups: List[float] = []
        setup_trace: dict = {}
        wanted_sets = 1 if traced else TRACE_SETS
        while len(setups) < (1 if traced else spec.setups):
            gc.collect()
            before = clock.sample()
            started = time.perf_counter()
            with (tracer.installed() if tracer is not None
                  else contextlib.nullcontext()):
                prepared = spec.prepare(trace_seed(seed, len(setups)), scale,
                                        workdir)
            elapsed = time.perf_counter() - started
            setups.append(clock.normalise(elapsed, [before, clock.sample()]))
            if len(sets) < wanted_sets:
                sets.append(prepared)
            del prepared
        if tracer is not None:
            setup_trace = tracer.snapshot()
            tracer.clear()

        # Whole rounds, stopping at the round boundary nearest the
        # deadline once an untraced run has timed MIN_OPERATIONS; set-up
        # does not count against the deadline.
        deadline = time.perf_counter() + seconds
        wanted = 0 if traced else MIN_OPERATIONS
        while True:
            rounds.append(runner.round(sets, len(rounds), tracer))
            if (time.perf_counter() + sum(rounds[-1]) / 2 >= deadline
                    and len(runner.executions) >= wanted):
                break
        peak_rss_mb = _peak_rss_mb()
        runner.normalise()
        runner.check_oracle(sets)
    finally:
        clear_pass_cache()
        shutil.rmtree(workdir, ignore_errors=True)

    result = RunResult(workload, seed, traced, scale_name, len(rounds),
                       runner.executions, metrics={})
    if result.correct:
        ledger.save()
    first_round = [execution.inspection for execution in runner.executions
                   if not execution.traced][:len(sets[0].operations)]
    counts = simulated_counts([inspection for inspection in first_round
                               if inspection is not None])
    if tracer is not None:
        result.metrics = _per_layer(tracer, setup_trace, sets[0], counts,
                                    rounds)
        result.notes["trace"] = tracer.snapshot()
    else:
        result.metrics = _end_to_end(result, import_s, setups, peak_rss_mb)
    result.notes["setup_s_per_set"] = setups
    result.notes["simulated"] = counts
    return result


def _end_to_end(result: RunResult, import_s: float, setups: List[float],
                peak_rss_mb: float) -> Dict[str, float]:
    passed = [execution for execution in result.executions
              if not execution.failure]
    design_refs = sum(execution.inspection.design_refs
                      for execution in passed)

    def timings(times: List[float]) -> Dict[str, float]:
        busy = sum(times)
        return {
            "design_refs_per_s": design_refs / busy if busy else 0.0,
            "op_s.p50": statistics.median(times) if times else 0.0,
            "op_s.tail": tail(times)[1],
        }

    normalised = [execution.normalised for execution in passed]
    percentile, _value, beyond = tail(normalised)
    result.notes.update(tail_percentile=percentile,
                        tail_samples=len(normalised), tail_beyond=beyond,
                        import_s=import_s,
                        host=timings([execution.seconds
                                      for execution in passed]))
    return {"setup_s": statistics.median(setups),
            **timings(normalised), "peak_rss_mb": peak_rss_mb}


def _per_layer(tracer: LayerTracer, setup_trace: dict, prepared: Prepared,
               counts: Dict[str, float],
               rounds: List[Tuple[float, float]]) -> Dict[str, float]:
    per = float(len(rounds))
    calls, items, seconds = tracer.calls, tracer.items, tracer.seconds
    own = tracer.layer_self

    def ratio(part: float, whole: float, scale: float = 1.0) -> float:
        return scale * part / whole if whole else 0.0

    lookups = calls["experiments.passcache.lookup"]
    metrics = {
        "workloads.generate_s": setup_trace["seconds"].get(
            "workloads.generate", 0.0),
        "workloads.refs": reference_count(prepared),
        "cache.access_s": seconds["cache.accesses"] / per,
        "cache.accesses": calls["cache.accesses"] / per,
        "cache.ns_per_access": ratio(seconds["cache.accesses"],
                                     calls["cache.accesses"], 1e9),
        "core.query_s": (seconds["core.queries"]
                         + seconds["core.batch_calls"]) / per,
        "core.queries": calls["core.queries"] / per,
        "core.batch_calls": calls["core.batch_calls"] / per,
        "core.batch_len_mean": ratio(items["core.batch_calls"],
                                     calls["core.batch_calls"]),
        "core.invalidate_calls": calls["core.invalidate_calls"] / per,
        "core.updates": calls["core.updates"] / per,
        "power.account_s": seconds["power.accounts"] / per,
        "power.accounts": calls["power.accounts"] / per,
        "analysis.record_s": seconds["analysis.records"] / per,
        "analysis.records": calls["analysis.records"] / per,
        "cpu.ns_per_instr": ratio(own["cpu"], items["cpu.runs"], 1e9),
        "multicore.access_s": (seconds["multicore.accesses"]
                               + seconds["multicore.queries"]) / per,
        "multicore.accesses": calls["multicore.accesses"] / per,
        "experiments.tasks": calls["experiments.journal"] / per,
        "experiments.passcache.hit_ratio": ratio(
            items["experiments.passcache.lookup"], lookups),
        "experiments.passcache_s": (
            seconds["experiments.passcache.lookup"]
            + seconds["experiments.passcache.store"]) / per,
        "experiments.journal_s": seconds["experiments.journal"] / per,
        "experiments.executor.overhead_s": (
            seconds["experiments.execute"]
            - tracer.task_seconds / prepared.jobs) / per,
        "search.sampler_s": seconds["search.sampler"] / per,
    }
    metrics.update((name, value) for name, value in counts.items())
    metrics.update((f"{layer}.self_s", own[layer] / per) for layer in LAYERS)
    untraced_round = statistics.median(pair[0] for pair in rounds)
    traced_round = statistics.median(pair[1] for pair in rounds)
    metrics.update({
        "trace.untraced_round_s": untraced_round,
        "trace.traced_round_s": traced_round,
        "trace.overhead": ratio(traced_round, untraced_round),
        "trace.unattributed_s": (sum(pair[1] for pair in rounds)
                                 - sum(own.values())) / per,
    })
    return {name: float(metrics[name]) for name, _unit, _better in PER_LAYER}
