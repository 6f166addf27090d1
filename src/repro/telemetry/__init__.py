"""Telemetry subsystem: metrics, decision tracing, spans, logging.

The MNM's value proposition is visibility into decisions — which
accesses were proven misses, which levels were bypassed, what that
saved.  This package is the observability layer that makes those
decisions inspectable at three granularities:

* :mod:`~repro.telemetry.registry` — aggregate **counters, gauges and
  histograms**, snapshotable to JSON (``--metrics-out``);
* :mod:`~repro.telemetry.tracer` — a **sampled JSONL stream** of
  per-access MNM decision records (``--trace-out``);
* :mod:`~repro.telemetry.spans` — **structured spans** with counter
  deltas around experiments and executor tasks, persisted in a
  ``--run-dir`` manifest (``repro-mnm obs show`` reads time and work
  back per task kind);
* :mod:`~repro.telemetry.logger` — the harness' structured progress
  logger.

Everything defaults to *off* via process-wide null singletons, so the
hot paths (``MostlyNoMachine.query``, ``SimulatedMemory.access``, the
reference-pass loop) pay one attribute check when telemetry is
disabled.  The CLI (or a test) turns pieces on with the ``enable_*``
functions and restores the defaults with :func:`reset`::

    from repro import telemetry

    registry = telemetry.enable_metrics()
    tracer = telemetry.enable_tracing("decisions.jsonl", sample_rate=0.1)
    try:
        ...  # run simulations; they pick the singletons up automatically
        registry.write_json("metrics.json")
    finally:
        telemetry.reset()   # closes the tracer, restores null defaults

Global state is deliberate: the simulation call graph (CLI → experiment
registry → memoised passes → hierarchy/MNM) is too deep to thread a
telemetry handle through every signature, and the null-singleton default
keeps the disabled cost to a pointer read — the same trade the standard
library's ``logging`` makes.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.telemetry.logger import TelemetryLogger, get_logger
from repro.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.spans import (
    NULL_SPANS,
    NullSpanRecorder,
    SpanRecorder,
)
from repro.telemetry.summary import (
    aggregate_trace,
    format_snapshot,
    summarize_path,
    trace_counters,
)
from repro.telemetry.tracer import (
    DEFAULT_MAX_BYTES,
    NULL_TRACER,
    DecisionTracer,
    NullTracer,
    access_record,
)

__all__ = [
    "Counter",
    "DecisionTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullSpanRecorder",
    "NullTracer",
    "SpanRecorder",
    "TelemetryLogger",
    "access_record",
    "aggregate_trace",
    "disable",
    "enable_metrics",
    "enable_spans",
    "enable_tracing",
    "format_snapshot",
    "get_logger",
    "get_registry",
    "get_spans",
    "get_tracer",
    "reset",
    "set_registry",
    "set_spans",
    "set_tracer",
    "summarize_path",
    "trace_counters",
]

_registry: MetricsRegistry = NULL_REGISTRY
_tracer: Union[DecisionTracer, NullTracer] = NULL_TRACER
_spans: SpanRecorder = NULL_SPANS


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry (a no-op singleton by default)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install a metrics registry and return it."""
    global _registry
    _registry = registry
    return registry


def enable_metrics() -> MetricsRegistry:
    """Install (and return) a fresh live metrics registry."""
    return set_registry(MetricsRegistry())


def get_tracer() -> Union[DecisionTracer, NullTracer]:
    """The process-wide decision tracer (a no-op singleton by default)."""
    return _tracer


def set_tracer(tracer: Union[DecisionTracer, NullTracer]) -> Union[
        DecisionTracer, NullTracer]:
    """Install a decision tracer and return it (closing any previous one)."""
    global _tracer
    if _tracer is not tracer:
        _tracer.close()
    _tracer = tracer
    return tracer


def enable_tracing(
    path: str,
    sample_rate: float = 1.0,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> DecisionTracer:
    """Install (and return) a live JSONL tracer writing to ``path``."""
    tracer = DecisionTracer(path, sample_rate=sample_rate, max_bytes=max_bytes)
    set_tracer(tracer)
    return tracer


def get_spans() -> SpanRecorder:
    """The process-wide span recorder (a no-op singleton by default)."""
    return _spans


def set_spans(spans: SpanRecorder) -> SpanRecorder:
    """Install a span recorder and return it."""
    global _spans
    _spans = spans
    return spans


def enable_spans() -> SpanRecorder:
    """Install (and return) a fresh live span recorder."""
    return set_spans(SpanRecorder())


def disable() -> None:
    """Alias of :func:`reset` (reads better at call sites that only
    ever turned telemetry on temporarily)."""
    reset()


def reset() -> None:
    """Restore the disabled defaults, closing any live tracer."""
    global _registry, _tracer, _spans
    _tracer.close()
    _registry = NULL_REGISTRY
    _tracer = NULL_TRACER
    _spans = NULL_SPANS
