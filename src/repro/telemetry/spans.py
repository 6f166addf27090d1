"""Structured spans: hierarchical timing with task/worker attribution.

The registry answers *how much* (aggregate counters).  Spans answer
*where did the time go, and on what work* — a tree of named start/stop
intervals measured with ``time.perf_counter``, each carrying:

* **attribution attrs** — ``task``/``attempt``/``worker`` for executor
  tasks, ``experiment`` for registry dispatches, ``round``/``fidelity``
  for search rounds;
* **counter deltas** — when the metrics registry is live, each span
  records how much every counter moved while it was open, so a slow
  span can be blamed on its work (references simulated, cache misses)
  and not just its clock;
* **events** — point-in-time occurrences (retries, timeouts, pool
  rebuilds, serial degradation) stamped with the span that was active;
* a **task ledger** — one entry per executed task with its id, attempt
  number and origin (``pool`` / ``serial`` / ``resumed``), which is what
  makes a retried task distinguishable from a first try in the run
  manifest.

Worker processes record into their own :class:`SpanRecorder`; the
snapshot travels back with the task result and the parent folds it in
with :meth:`SpanRecorder.merge_remote` **in task-submission order**, the
same contract worker metrics snapshots already ride.  Span timings are
wall-clock and therefore vary run to run — spans are *excluded* from the
serial≡parallel byte-identity contract exactly like the ``executor.*``
counters; they feed the run manifest (:mod:`repro.obs.manifest`), never
a report.

Like every telemetry piece, the process-wide default is a disabled
singleton (:data:`NULL_SPANS`): ``span()`` hands out a shared no-op
context manager and ``event``/``record_task`` return immediately, so
instrumented paths cost one attribute check when spans are off.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

#: Snapshot layout version (bump when the span record shape changes).
SPANS_SCHEMA = "repro-spans/v1"


class _SpanHandle:
    """Context manager for one live span."""

    __slots__ = ("_recorder", "_name", "_attrs", "_index", "_baseline")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._index = -1
        self._baseline: Optional[Dict[str, int]] = None

    def __enter__(self) -> "_SpanHandle":
        self._index, self._baseline = self._recorder._open(
            self._name, self._attrs)
        return self

    def __exit__(self, exc_type, *exc_info: object) -> None:
        self._recorder._close(
            self._index, self._baseline,
            error=exc_type.__name__ if exc_type is not None else None)


class _NullSpanHandle:
    """Shared do-nothing span handed out by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN_HANDLE = _NullSpanHandle()


class SpanRecorder:
    """Accumulates a span tree, events and a task ledger for one process.

    Span times are seconds relative to the recorder's creation (its
    *origin*), so a snapshot reads as a timeline starting at 0.  Counter
    deltas are captured against the process-wide metrics registry when it
    is enabled; a registry installed mid-span simply yields no delta for
    that span.
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: List[dict] = []
        self._stack: List[int] = []          # indices into _spans
        self._events: List[dict] = []
        self._tasks: List[dict] = []
        self._next_id = 0
        self._origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Context manager opening a child of the currently active span."""
        return _SpanHandle(self, name, attrs)

    def _registry_counters(self) -> Optional[Dict[str, int]]:
        from repro import telemetry

        registry = telemetry.get_registry()
        if not registry.enabled:
            return None
        return registry.counter_values()

    def _open(self, name: str, attrs: Dict[str, Any]):
        record: dict = {
            "id": self._next_id,
            "parent": (self._spans[self._stack[-1]]["id"]
                       if self._stack else None),
            "name": name,
            "start": round(time.perf_counter() - self._origin, 6),
            "end": None,
        }
        if attrs:
            record["attrs"] = dict(attrs)
        self._next_id += 1
        index = len(self._spans)
        self._spans.append(record)
        self._stack.append(index)
        return index, self._registry_counters()

    def _close(self, index: int, baseline: Optional[Dict[str, int]],
               error: Optional[str] = None) -> None:
        record = self._spans[index]
        record["end"] = round(time.perf_counter() - self._origin, 6)
        if error is not None:
            record.setdefault("attrs", {})["error"] = error
        if baseline is not None:
            current = self._registry_counters()
            if current is not None:
                deltas = {
                    name: value - baseline.get(name, 0)
                    for name, value in current.items()
                    if value != baseline.get(name, 0)
                }
                if deltas:
                    record["counters"] = deltas
        # Exceptions unwind spans LIFO through the context managers, but
        # tolerate a stray close so a broken caller cannot corrupt the tree.
        if index in self._stack:
            while self._stack and self._stack[-1] != index:
                self._stack.pop()
            if self._stack:
                self._stack.pop()

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time occurrence under the active span."""
        record: dict = {
            "name": name,
            "time": round(time.perf_counter() - self._origin, 6),
            "span": self.current_name(),
        }
        if attrs:
            record["attrs"] = dict(attrs)
        self._events.append(record)

    def record_task(self, task_id: str, description: str, attempt: int,
                    elapsed: Optional[float] = None,
                    worker: str = "serial") -> None:
        """Add one executed task to the ledger.

        ``attempt`` is the attempt number that *succeeded* (1 = first
        try), so manifests distinguish retried tasks from clean ones;
        ``worker`` names the execution origin (``pool`` / ``serial`` /
        ``resumed``).
        """
        entry: dict = {
            "task_id": task_id,
            "task": description,
            "attempt": attempt,
            "worker": worker,
        }
        if elapsed is not None:
            entry["elapsed_s"] = round(elapsed, 6)
        self._tasks.append(entry)

    def merge_remote(self, snapshot: dict, **attrs: Any) -> None:
        """Fold a worker recorder's :meth:`snapshot` into this one.

        Remote spans keep their own relative times (a worker's clock is
        not alignable to the parent's); their ids are rebased, their
        roots are parented under the currently active span, and ``attrs``
        (task/attempt/worker attribution) are stamped onto every remote
        root.  Called in task-submission order by the executor so the
        merged tree is independent of worker scheduling.
        """
        if not self.enabled:
            return
        id_map: Dict[int, int] = {}
        parent_id = (self._spans[self._stack[-1]]["id"]
                     if self._stack else None)
        for record in snapshot.get("spans", []):
            merged = dict(record)
            old_id = merged["id"]
            id_map[old_id] = merged["id"] = self._next_id
            self._next_id += 1
            old_parent = merged.get("parent")
            if old_parent is None or old_parent not in id_map:
                merged["parent"] = parent_id
                if attrs:
                    merged_attrs = dict(merged.get("attrs", {}))
                    merged_attrs.update(attrs)
                    merged["attrs"] = merged_attrs
                merged["remote"] = True
            else:
                merged["parent"] = id_map[old_parent]
            self._spans.append(merged)
        for event in snapshot.get("events", []):
            merged_event = dict(event)
            if attrs:
                event_attrs = dict(merged_event.get("attrs", {}))
                event_attrs.update(attrs)
                merged_event["attrs"] = event_attrs
            self._events.append(merged_event)

    # -- reading -----------------------------------------------------------

    def current_name(self) -> str:
        """Name of the innermost open span ("" when none is active)."""
        if not self._stack:
            return ""
        return self._spans[self._stack[-1]]["name"]

    def snapshot(self) -> dict:
        """Plain-dict view (spans in start order), ready for ``json.dump``.

        Spans still open appear with ``"end": None`` — an interrupted
        run's manifest shows exactly where it stopped.
        """
        return {
            "schema": SPANS_SCHEMA,
            "spans": [dict(record) for record in self._spans],
            "events": [dict(event) for event in self._events],
            "tasks": [dict(entry) for entry in self._tasks],
        }

    def reset(self) -> None:
        """Drop everything recorded (the origin is re-zeroed)."""
        self._spans.clear()
        self._stack.clear()
        self._events.clear()
        self._tasks.clear()
        self._next_id = 0
        self._origin = time.perf_counter()

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return (f"SpanRecorder(spans={len(self._spans)}, "
                f"events={len(self._events)}, tasks={len(self._tasks)})")


class NullSpanRecorder(SpanRecorder):
    """Disabled recorder: spans are no-ops, nothing is kept."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpanHandle:  # type: ignore[override]
        """The shared do-nothing span."""
        return _NULL_SPAN_HANDLE

    def event(self, name: str, **attrs: Any) -> None:
        """Discard the event."""

    def record_task(self, task_id: str, description: str, attempt: int,
                    elapsed: Optional[float] = None,
                    worker: str = "serial") -> None:
        """Discard the ledger entry."""

    def merge_remote(self, snapshot: dict, **attrs: Any) -> None:
        """Discard the remote snapshot."""

    def snapshot(self) -> dict:
        """Always empty."""
        return {"schema": SPANS_SCHEMA, "spans": [], "events": [],
                "tasks": []}

    def __repr__(self) -> str:
        return "NullSpanRecorder()"


#: Process-wide disabled-recorder singleton (the default).
NULL_SPANS = NullSpanRecorder()
