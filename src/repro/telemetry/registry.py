"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the aggregate half of the telemetry subsystem (the
structured half is :mod:`repro.telemetry.tracer`).  Design constraints,
in order:

1. **Near-zero overhead when disabled.**  The process-wide default is
   :data:`NULL_REGISTRY`, whose instruments are shared no-op singletons;
   hot paths test ``registry.enabled`` once and skip their recording
   blocks entirely, so a disabled run costs one attribute read per site.
2. **Allocation-free on the hot path when enabled.**  Instruments are
   created (and interned) by :meth:`MetricsRegistry.counter` & friends
   *before* a loop starts; inside the loop, ``counter.inc()`` is a bare
   integer add on a ``__slots__`` object — no dict lookups, no boxing
   beyond Python's own ints.
3. **Snapshotable.**  :meth:`MetricsRegistry.snapshot` returns plain
   dicts/lists/numbers, directly ``json.dump``-able (the CLI's
   ``--metrics-out``).

Naming convention (dotted, lowercase) used by the simulation wiring:

========================================  =====================================
``pass.references``                       measured references in reference passes
``mnm.queries`` / ``mnm.miss_answers``    MNM query volume / any-bit-set answers
``mnm.<design>.bypass.l<tier>``           executed bypasses per level — equals
                                          the :class:`~repro.analysis.coverage.
                                          CoverageMeter` *identified* count
``mnm.<design>.candidates.l<tier>``       identifiable misses per level — equals
                                          the meter's *candidates* count
``cache.<name>.probes`` / ``.hits`` /     per-cache totals exported at the end
``.misses``                               of a run
``cache.pass.disk.corrupt`` /             pass-cache disk entries degraded to
``.schema_mismatch``                      misses (observable, never silent)
``memory.accesses``                       accesses through ``SimulatedMemory``
``memory.latency_cycles``                 histogram of priced access latencies
``core.instructions`` / ``core.cycles``   full-system run totals
``executor.tasks.completed`` /            the parallel executor's task ledger:
``.retried`` / ``.timeout`` /             retries after transient failures,
``.failed`` / ``.recovered`` /            timeouts, fatal failures, successes
``.resumed``                              after retry, tasks a ``--run-dir``
                                          re-run found already cached
``executor.pool.broken`` / ``.rebuilds``  worker-pool collapses and rebuilds
``executor.serial_fallback``              degradations to serial execution
========================================  =====================================
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds for access latencies in cycles
#: (the paper hierarchy's hit latencies run 1..80ish, memory ~250).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time numeric metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def reset(self) -> None:
        """Zero the gauge."""
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram of a numeric quantity.

    Buckets are defined by a sorted tuple of upper edges; an observation
    lands in the first bucket whose edge is >= the value, or in the
    implicit overflow bucket past the last edge.  The bucket layout is
    fixed at creation so :meth:`observe` never allocates.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Fold one observation into the buckets."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def observe_many(self, value: float, count: int) -> None:
        """Fold ``count`` observations of the same ``value``.

        Equal to ``count`` :meth:`observe` calls for integer values (the
        latencies it is used for), whose float sums are exact.
        """
        self.counts[bisect_left(self.bounds, value)] += count
        self.total += value * count
        self.count += count

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Zero all buckets and totals (the bucket layout is kept)."""
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with the same bucket layout into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.count += other.count

    def to_dict(self) -> dict:
        """JSON-serialisable representation with labelled buckets."""
        buckets = {f"le_{edge:g}": count
                   for edge, count in zip(self.bounds, self.counts)}
        buckets[f"gt_{self.bounds[-1]:g}"] = self.counts[-1]
        return {
            "buckets": buckets,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


class MetricsRegistry:
    """Interning factory and store for all metric instruments.

    Instruments are created on first request and returned on every
    subsequent one, so call sites can hold direct references and hot
    loops never touch the registry.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the named gauge."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """Get-or-create the named histogram (``bounds`` only applies on
        first creation; later calls return the existing layout)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def counter_values(self) -> Dict[str, int]:
        """Current value of every counter (the span layer diffs these
        to attribute counter movement to the span that caused it)."""
        return {name: c.value for name, c in self._counters.items()}

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument, ready for ``json.dump``."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.to_dict()
                           for name, h in sorted(self._histograms.items())},
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges take the incoming value, histograms merge
        bucket-wise (bucket edges are recovered from the snapshot's
        ``le_<edge>`` labels).  The parallel executor uses this to combine
        worker-process recordings so a parallel run's ``--metrics-out``
        totals equal a serial run's.
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            buckets = data.get("buckets", {})
            bounds = tuple(
                float(label[3:]) for label in buckets
                if label.startswith("le_")
            )
            histogram = self.histogram(
                name, bounds or DEFAULT_LATENCY_BUCKETS)
            for index, edge in enumerate(histogram.bounds):
                histogram.counts[index] += buckets.get(f"le_{edge:g}", 0)
            histogram.counts[-1] += buckets.get(
                f"gt_{histogram.bounds[-1]:g}", 0)
            histogram.total += data.get("sum", 0.0)
            histogram.count += data.get("count", 0)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot rendered as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        """Write the snapshot to ``path`` as JSON."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def reset(self) -> None:
        """Zero every instrument (layouts and identities are kept)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self)})"


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by the null registry."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: D102 - inherited
        """Discard the increment."""


class _NullGauge(Gauge):
    """Shared do-nothing gauge handed out by the null registry."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""


class _NullHistogram(Histogram):
    """Shared do-nothing histogram handed out by the null registry."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""


class NullRegistry(MetricsRegistry):
    """Disabled registry: every request returns a shared no-op instrument.

    ``enabled`` is False so instrumented code can skip whole recording
    blocks; code that doesn't bother checking still works, it just
    records into the void without allocating.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        """The shared no-op counter, whatever the name."""
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        """The shared no-op gauge, whatever the name."""
        return self._null_gauge

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """The shared no-op histogram, whatever the name."""
        return self._null_histogram

    def counter_values(self) -> Dict[str, int]:
        """Always empty."""
        return {}

    def snapshot(self) -> dict:
        """Always empty."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __repr__(self) -> str:
        return "NullRegistry()"


#: Process-wide disabled-registry singleton (the default).
NULL_REGISTRY = NullRegistry()
