"""Profiling hooks: phase timers and throughput meters.

A :class:`Profiler` accumulates named *phases* — wall-clock buckets
measured with ``time.perf_counter`` — plus optional unit counts so a
phase can report a throughput (references/sec for reference passes,
instructions/sec for core runs, one ``experiment.<id>`` phase per
registry dispatch).  The snapshot feeds the CLI's ``--profile`` output
and the machine-readable ``BENCH_telemetry.json`` it writes.

Like the metrics registry, the process default is a disabled singleton
(:data:`NULL_PROFILER`): instrumented code checks ``profiler.enabled``
and skips even the ``perf_counter`` calls when profiling is off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class PhaseStats:
    """Accumulated wall-clock and unit totals for one named phase."""

    seconds: float = 0.0
    calls: int = 0
    units: int = 0
    unit_name: str = ""

    @property
    def per_sec(self) -> float:
        """Units per second over the phase's accumulated time."""
        return self.units / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        result = {
            "seconds": self.seconds,
            "calls": self.calls,
        }
        if self.units:
            result["units"] = self.units
            result["unit_name"] = self.unit_name
            result["per_sec"] = self.per_sec
        return result


class _PhaseTimer:
    """Context manager adding one timed interval to a profiler phase."""

    __slots__ = ("_profiler", "_name", "_started")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profiler.add(self._name, time.perf_counter() - self._started)


class _NullPhaseTimer:
    """Do-nothing context manager handed out by the null profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhaseTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_PHASE_TIMER = _NullPhaseTimer()


class Profiler:
    """Accumulates phase timings and throughputs across a run."""

    enabled = True

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStats] = {}

    def _phase(self, name: str) -> PhaseStats:
        stats = self._phases.get(name)
        if stats is None:
            stats = self._phases[name] = PhaseStats()
        return stats

    def phase(self, name: str) -> _PhaseTimer:
        """Context manager timing one interval of the named phase."""
        return _PhaseTimer(self, name)

    def add(
        self,
        name: str,
        seconds: float,
        units: int = 0,
        unit_name: str = "",
    ) -> None:
        """Fold one measured interval (and optional unit count) into a phase.

        ``units``/``unit_name`` let a phase report throughput: e.g.
        ``add("reference_pass", 1.7, units=100_000,
        unit_name="references")`` yields a references/sec figure in the
        snapshot.
        """
        stats = self._phase(name)
        stats.seconds += seconds
        stats.calls += 1
        if units:
            stats.units += units
            if unit_name:
                stats.unit_name = unit_name

    def stats_for(self, name: str) -> Optional[PhaseStats]:
        """The accumulated stats of one phase (None if never recorded)."""
        return self._phases.get(name)

    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict view of every phase, ready for ``json.dump``."""
        return {name: stats.to_dict()
                for name, stats in sorted(self._phases.items())}

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Seconds, call counts and unit totals add per phase.  The parallel
        executor uses this so worker-process simulation phases (and their
        throughput unit counts) appear in the parent's ``--profile``
        output just as a serial run's would.
        """
        if not self.enabled:
            return
        for name, data in snapshot.items():
            stats = self._phase(name)
            stats.seconds += data.get("seconds", 0.0)
            stats.calls += data.get("calls", 0)
            stats.units += data.get("units", 0)
            unit_name = data.get("unit_name", "")
            if unit_name:
                stats.unit_name = unit_name

    def reset(self) -> None:
        """Drop all accumulated phases."""
        self._phases.clear()

    def __repr__(self) -> str:
        return f"Profiler(phases={len(self._phases)})"


class NullProfiler(Profiler):
    """Disabled profiler: timers are no-ops, nothing is recorded."""

    enabled = False

    def phase(self, name: str) -> _NullPhaseTimer:  # type: ignore[override]
        """The shared do-nothing timer."""
        return _NULL_PHASE_TIMER

    def add(self, name: str, seconds: float, units: int = 0,
            unit_name: str = "") -> None:
        """Discard the interval."""

    def __repr__(self) -> str:
        return "NullProfiler()"


#: Process-wide disabled-profiler singleton (the default).
NULL_PROFILER = NullProfiler()
