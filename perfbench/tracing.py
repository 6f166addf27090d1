"""Per-layer timing and counting from outside the program.

:class:`LayerTracer` wraps the public entry points of each simulation
layer of ``repro`` (the :data:`PROBES` table) with counting and timing
wrappers, keeps the aggregates in memory, and restores every original
when :meth:`LayerTracer.installed` exits — normally or by an exception.
Nothing under ``src/`` is changed; the wrappers are plain attribute
replacements on the modules and classes named in the table.

Attribution rules:

* A call *crosses into a layer* when the innermost traced call around it
  belongs to another layer (or there is none).  A layer's *inclusive*
  time is the sum of its crossings' durations; its *self* time subtracts
  the time spent in crossings into other layers below them.  Work the
  wrappers cannot see counts toward the nearest traced caller, and the
  ``repro.simulate`` façade's own loops toward none.
* Each counter counts (and times) its outermost calls only: a call
  nested in a call of the same counter (a hybrid filter asking its
  components, a machine asking its filters) is part of the outer one.
  Constructors count as ``<layer>.builds``.
* Worker processes of a fork-started pool inherit the wrappers.  Each
  worker task dumps its own aggregates to :attr:`LayerTracer.worker_dir`
  and the parent folds them in with :meth:`LayerTracer.merge_worker_dumps`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The layers of ``src/repro`` on the simulation path, in report order.
LAYERS = ("workloads", "cache", "core", "kernel", "power", "analysis",
          "cpu", "multicore", "experiments", "search")

#: Probe kinds: a plain call; a call whose first argument is a batch (its
#: length is summed); a cache lookup (results other than None are summed
#: as hits); the run journal's ``record``, whose ``elapsed`` keyword is
#: the compute time of the task it journals; a generator whose steps are
#: timed; and the pool's worker entry point.
CALL, BATCH, LOOKUP, JOURNAL, STREAM, WORKER = (
    "call", "batch", "lookup", "journal", "stream", "worker")

#: Every ``repro.core`` filter class is probed through this base.
FILTER_BASE = "repro.core.base:MissFilter"


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``target`` is ``module`` or ``module:Class``."""

    layer: str
    target: str
    attr: str
    counter: str
    kind: str = CALL


PROBES: Tuple[Probe, ...] = (
    Probe("workloads", "repro.workloads", "generate_trace",
          "workloads.generate"),
    Probe("cache", "repro.cache.hierarchy:CacheHierarchy", "__init__",
          "cache.builds"),
    Probe("cache", "repro.cache.hierarchy:CacheHierarchy", "access",
          "cache.accesses"),
    Probe("core", "repro.core.machine:MostlyNoMachine", "__init__",
          "core.builds"),
    Probe("core", "repro.core.machine:MostlyNoMachine", "query",
          "core.queries"),
    Probe("core", "repro.core.machine:MostlyNoMachine", "query_many",
          "core.batch_calls", BATCH),
    Probe("core", "repro.core.machine:MostlyNoMachine", "on_invalidate",
          "core.invalidate_calls"),
    Probe("core", FILTER_BASE, "is_definite_miss", "core.queries"),
    Probe("core", FILTER_BASE, "query_many", "core.batch_calls", BATCH),
    Probe("core", FILTER_BASE, "on_invalidate", "core.invalidate_calls"),
    Probe("core", FILTER_BASE, "on_place", "core.updates"),
    Probe("core", FILTER_BASE, "on_replace", "core.updates"),
    Probe("core", "repro.core.rmnm:RMNMCache", "replaced_bits_of",
          "core.queries"),
    Probe("core", "repro.core.rmnm:RMNMCache", "replaced_bits_many",
          "core.batch_calls", BATCH),
    Probe("core", "repro.core.rmnm:RMNMCache", "record_place",
          "core.updates"),
    Probe("core", "repro.core.rmnm:RMNMCache", "record_replace",
          "core.updates"),
    Probe("kernel", "repro.kernel", "run_reference_pass_fast",
          "kernel.passes"),
    Probe("power", "repro.power.energy:HierarchyEnergyModel", "__init__",
          "power.builds"),
    Probe("power", "repro.power.energy:EnergyAccountant", "__init__",
          "power.builds"),
    Probe("power", "repro.power.energy:EnergyAccountant", "account",
          "power.accounts"),
    Probe("analysis", "repro.analysis.coverage:CoverageMeter", "__init__",
          "analysis.builds"),
    Probe("analysis", "repro.analysis.coverage:CoverageMeter", "record",
          "analysis.records"),
    Probe("analysis", "repro.analysis.coverage:CoverageMeter", "record_many",
          "analysis.records"),
    Probe("analysis", "repro.analysis.timing:AccessTimingModel", "__init__",
          "analysis.builds"),
    Probe("analysis", "repro.analysis.timing:AccessTimingModel", "latency",
          "analysis.records"),
    Probe("analysis", "repro.analysis.timing:AccessTimingModel", "miss_time",
          "analysis.records"),
    Probe("cpu", "repro.cpu.core:OutOfOrderCore", "__init__", "cpu.builds"),
    # The batch is the instruction list: items count simulated instructions.
    Probe("cpu", "repro.cpu.core:OutOfOrderCore", "run", "cpu.runs", BATCH),
    Probe("multicore", "repro.multicore.hierarchy:MulticoreHierarchy",
          "__init__", "multicore.builds"),
    Probe("multicore", "repro.multicore.hierarchy:MulticoreHierarchy",
          "access", "multicore.accesses"),
    Probe("multicore", "repro.multicore.mnm:MulticoreMNM", "__init__",
          "multicore.builds"),
    Probe("multicore", "repro.multicore.mnm:MulticoreMNM", "query",
          "multicore.queries"),
    Probe("experiments", "repro.search.runner", "execute_tasks",
          "experiments.execute"),
    Probe("experiments", "repro.experiments.passcache:PassCache", "lookup",
          "experiments.passcache.lookup", LOOKUP),
    Probe("experiments", "repro.experiments.passcache:PassCache", "store",
          "experiments.passcache.store"),
    Probe("experiments", "repro.experiments.passcache:PassCache", "seed",
          "experiments.passcache.store"),
    Probe("experiments", "repro.experiments.checkpoint:RunJournal", "record",
          "experiments.journal", JOURNAL),
    Probe("experiments", "repro.experiments.backends.pool", "run_task",
          "experiments.worker_task", WORKER),
    Probe("search", "repro.search.runner", "run_search", "search.runs"),
    Probe("search", "repro.search.samplers:SuccessiveHalvingSampler",
          "proposals", "search.sampler", STREAM),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _owners(probe: Probe) -> List[object]:
    """Modules/classes whose own ``__dict__`` defines the probed attribute."""
    owner = _resolve(probe.target)
    if probe.target != FILTER_BASE:
        return [owner]
    # Every concrete filter implementation, abstract declarations excluded.
    importlib.import_module("repro.core")
    return [cls for cls in dict.fromkeys(_subclasses(owner))
            if probe.attr in vars(cls)
            and probe.attr not in getattr(cls, "__abstractmethods__", ())]


class LayerTracer:
    """In-memory per-layer aggregates plus the wrappers that feed them."""

    def __init__(self, worker_dir: Optional[str] = None) -> None:
        #: Where fork-started pool workers dump their aggregates.
        self.worker_dir = worker_dir
        self._pid = os.getpid()
        self._installed: List[Tuple[object, str, object]] = []
        self._dumps = 0
        self.clear()

    # -- aggregates ----------------------------------------------------------

    def clear(self) -> None:
        """Drop every aggregate (the wrappers stay installed)."""
        self._stack: List[list] = []      # [layer, seconds in other layers]
        self._depth: Counter = Counter()  # counter -> calls open
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.layer_seconds: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        #: Compute time of the executor tasks journaled while tracing.
        self.task_seconds = 0.0

    def snapshot(self) -> dict:
        """The aggregates as plain JSON-ready dicts."""
        return {
            "calls": dict(self.calls),
            "items": dict(self.items),
            "seconds": dict(self.seconds),
            "layer_seconds": dict(self.layer_seconds),
            "layer_self": dict(self.layer_self),
            "task_seconds": self.task_seconds,
        }

    def merge(self, snapshot: dict) -> None:
        """Add another tracer's :meth:`snapshot` into this one."""
        self.calls.update(snapshot["calls"])
        self.items.update(snapshot["items"])
        for field in ("seconds", "layer_seconds", "layer_self"):
            target = getattr(self, field)
            for name, value in snapshot[field].items():
                target[name] += value
        self.task_seconds += snapshot["task_seconds"]

    # -- timing ----------------------------------------------------------------

    def call(self, layer: str, counter: str, fn: Callable, args: tuple,
             kwargs: dict, batch: Optional[int] = None):
        """Run ``fn(*args, **kwargs)`` as one traced call."""
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        depth = self._depth[counter]
        self._depth[counter] = depth + 1
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self._depth[counter] = depth
            stack.pop()
            if depth == 0:
                self.calls[counter] += 1
                self.seconds[counter] += elapsed
                if batch is not None:
                    self.items[counter] += batch
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                parent[1] += frame[1]
            else:
                self.layer_seconds[layer] += elapsed
                self.layer_self[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        layer, counter, kind = probe.layer, probe.counter, probe.kind
        call = self.call
        if kind == CALL:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return call(layer, counter, original, args, kwargs)
        elif kind == LOOKUP:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                found = call(layer, counter, original, args, kwargs)
                if found is not None:
                    self.items[counter] += 1
                return found
        elif kind == JOURNAL:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.task_seconds += kwargs.get("elapsed") or 0.0
                return call(layer, counter, original, args, kwargs)
        elif kind == BATCH:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return call(layer, counter, original, args, kwargs,
                            batch=len(args[1]))
        elif kind == STREAM:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return self._timed_stream(layer, counter,
                                          original(*args, **kwargs))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return self._worker_call(original, args, kwargs)
        return wrapper

    def _timed_stream(self, layer: str, counter: str, stream):
        """Re-yield a generator's items, timing only its own steps."""
        try:
            item = self.call(layer, counter, next, (stream,), {})
            while True:
                reply = yield item
                item = self.call(layer, counter, stream.send, (reply,), {})
        except StopIteration:
            return

    def _worker_call(self, original: Callable, args: tuple, kwargs: dict):
        """Pool worker entry: trace the task alone, then dump it to disk."""
        if os.getpid() == self._pid or self.worker_dir is None:
            return original(*args, **kwargs)
        self.clear()  # the fork copied the parent's open frames and totals
        try:
            return original(*args, **kwargs)
        finally:
            self._dumps += 1
            path = os.path.join(self.worker_dir,
                                f"worker-{os.getpid()}-{self._dumps}.json")
            with open(path, "w") as handle:
                json.dump(self.snapshot(), handle)

    def merge_worker_dumps(self) -> None:
        """Fold the workers' dumps into this tracer and delete them."""
        if self.worker_dir is None:
            return
        for name in sorted(os.listdir(self.worker_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                path = os.path.join(self.worker_dir, name)
                with open(path) as handle:
                    self.merge(json.load(handle))
                os.remove(path)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, probes: Tuple[Probe, ...] = PROBES):
        """Wrap every probe for the duration of the block, then restore."""
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for probe in probes:
                for owner in _owners(probe):
                    original = vars(owner)[probe.attr]
                    setattr(owner, probe.attr, self._wrap(probe, original))
                    self._installed.append((owner, probe.attr, original))
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)


def current_attributes(probes: Tuple[Probe, ...] = PROBES) -> dict:
    """``{(owner, attr): attribute}`` for every probe target.

    Taken before and after tracing, the two maps must be identical: the
    check that no wrapper outlived its run.
    """
    return {(owner, probe.attr): vars(owner)[probe.attr]
            for probe in probes for owner in _owners(probe)}
