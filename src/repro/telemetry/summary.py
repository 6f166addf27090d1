"""Telemetry artifact inspection: aggregate traces, pretty-print snapshots.

Backs the ``repro-mnm telemetry summary`` subcommand.  Two artifact
shapes are understood:

* a **metrics snapshot** — the JSON document written by ``--metrics-out``
  (``{"counters": ..., "gauges": ..., "histograms": ...}``);
* a **decision trace** — the JSONL stream written by ``--trace-out``
  (one :func:`~repro.telemetry.tracer.access_record` object per line).

A trace aggregates back to the same per-level bypass counters the
registry keeps (``mnm.<design>.bypass.l<tier>``), which is the
round-trip property the integration tests pin: counters, trace and
:class:`~repro.analysis.coverage.CoverageMeter` must all tell the same
story about the same run.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List


def aggregate_trace(path: str) -> Dict[str, Any]:
    """Fold a JSONL decision trace back into aggregate counts.

    Returns a dict with the number of records, per-kind access counts,
    and per-design per-tier bypass totals mirroring the registry's
    counter names.  Unparseable lines — a trace truncated mid-write by a
    crash ends in one — are counted as ``skipped`` rather than aborting
    the whole aggregation.
    """
    records = 0
    skipped = 0
    kinds: Dict[str, int] = {}
    suppliers: Dict[str, int] = {}
    designs: Dict[str, Dict[int, int]] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            if record.get("t") != "access":
                continue
            records += 1
            kind = record.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
            supplier = record.get("supplier")
            label = "memory" if supplier is None else f"l{supplier}"
            suppliers[label] = suppliers.get(label, 0) + 1
            for name, decision in record.get("designs", {}).items():
                per_tier = designs.setdefault(name, {})
                for tier in decision.get("bypassed", ()):
                    per_tier[tier] = per_tier.get(tier, 0) + 1
    return {
        "records": records,
        "skipped": skipped,
        "kinds": kinds,
        "suppliers": suppliers,
        "designs": designs,
    }


def trace_counters(aggregate: Dict[str, Any]) -> Dict[str, int]:
    """Registry-style counter names/values derived from a trace aggregate.

    With a sampling rate of 1.0 these equal the live registry's
    ``mnm.<design>.bypass.l<tier>`` counters for the same run.
    """
    counters: Dict[str, int] = {}
    for name, per_tier in aggregate["designs"].items():
        for tier, count in per_tier.items():
            counters[f"mnm.{name}.bypass.l{tier}"] = count
    return counters


def _format_section(title: str, rows: List[tuple]) -> List[str]:
    lines = [title]
    if not rows:
        lines.append("  (none)")
        return lines
    width = max(len(str(name)) for name, _ in rows)
    for name, value in rows:
        if isinstance(value, float):
            value = f"{value:.3f}"
        lines.append(f"  {str(name):<{width}}  {value}")
    return lines


def format_snapshot(snapshot: Dict[str, Any]) -> str:
    """Pretty-print a metrics snapshot as aligned text sections."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    lines.extend(_format_section("counters:", sorted(counters.items())))
    if gauges:
        lines.append("")
        lines.extend(_format_section("gauges:", sorted(gauges.items())))
    if histograms:
        lines.append("")
        lines.append("histograms:")
        for name, data in sorted(histograms.items()):
            lines.append(
                f"  {name}  count={data.get('count', 0)} "
                f"mean={data.get('mean', 0.0):.2f}"
            )
            for bucket, count in data.get("buckets", {}).items():
                if count:
                    lines.append(f"    {bucket:<10} {count}")
    return "\n".join(lines)


def format_trace_summary(path: str) -> str:
    """Aggregate a JSONL trace and render the totals as text."""
    aggregate = aggregate_trace(path)
    lines = [f"trace: {path}", f"records: {aggregate['records']}"]
    if aggregate.get("skipped"):
        lines.append(f"skipped: {aggregate['skipped']} unparseable "
                     "line(s) — truncated or torn trace?")
    lines.append("")
    lines.extend(_format_section(
        "accesses by kind:", sorted(aggregate["kinds"].items())))
    lines.append("")
    lines.extend(_format_section(
        "supplied by:", sorted(aggregate["suppliers"].items())))
    counters = trace_counters(aggregate)
    lines.append("")
    lines.extend(_format_section(
        "bypass counters (from trace):", sorted(counters.items())))
    return "\n".join(lines)


def summarize_path(path: str) -> str:
    """Render any telemetry artifact (snapshot JSON or JSONL trace).

    Detection is structural, not extension-based: a file whose first
    line parses as an object with a ``"t"`` field is a trace; a file
    that parses whole as an object with a ``"counters"`` field is a
    snapshot.  Anything else raises ``ValueError``.
    """
    with open(path) as handle:
        first_line = handle.readline()
    try:
        first = json.loads(first_line)
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and "t" in first:
        return format_trace_summary(path)
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "counters" not in document:
        raise ValueError(f"{path}: not a telemetry artifact")
    return format_snapshot(document)
