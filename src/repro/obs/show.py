"""``obs show``: render a run manifest as a terminal timeline.

Three sections:

* **timeline** — the span tree, indented by depth, with durations and a
  proportional bar (worker-local spans are marked, since their clocks
  are not alignable to the parent's);
* **slowest tasks** — the top-N task-ledger entries by elapsed time,
  the first place to look for a straggler;
* **stragglers & retries** — every task that needed more than one
  attempt, plus the resilience events (retries, timeouts, pool rebuilds,
  serial degradation) in order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Width of the proportional duration bar in the timeline.
BAR_WIDTH = 24


def _duration(span: Dict[str, Any]) -> Optional[float]:
    if span.get("end") is None:
        return None
    return span["end"] - span["start"]


def _format_attrs(attrs: Dict[str, Any]) -> str:
    return " ".join(f"{key}={value}" for key, value in attrs.items())


def _span_children(spans: List[dict]) -> Dict[Optional[int], List[dict]]:
    children: Dict[Optional[int], List[dict]] = {}
    ids = {span["id"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in ids:
            parent = None  # orphaned remote span: show it at the root
        children.setdefault(parent, []).append(span)
    return children


def render_timeline(spans: List[dict], bar_width: int = BAR_WIDTH
                    ) -> List[str]:
    """The span tree as indented ``name duration |bar| attrs`` lines."""
    if not spans:
        return ["  (no spans recorded)"]
    children = _span_children(spans)
    durations = [d for d in (_duration(span) for span in spans)
                 if d is not None]
    scale = max(durations) if durations else 0.0
    lines: List[str] = []

    def visit(span: dict, depth: int) -> None:
        duration = _duration(span)
        if duration is None:
            timing = "   (open)  "
            bar = ""
        else:
            timing = f"{duration:9.3f}s  "
            filled = (int(round(bar_width * duration / scale))
                      if scale > 0 else 0)
            bar = "|" + "#" * filled + " " * (bar_width - filled) + "| "
        attrs = dict(span.get("attrs", {}))
        if span.get("remote"):
            attrs.setdefault("clock", "worker")
        suffix = f"  {_format_attrs(attrs)}" if attrs else ""
        lines.append(
            f"  {timing}{bar}{'  ' * depth}{span['name']}{suffix}")
        for child in children.get(span["id"], []):
            visit(child, depth + 1)

    for root in children.get(None, []):
        visit(root, 0)
    return lines


def slowest_tasks(tasks: List[dict], top: int = 10) -> List[dict]:
    """The ``top`` ledger entries by elapsed time (executed tasks only)."""
    timed = [task for task in tasks if task.get("elapsed_s") is not None]
    timed.sort(key=lambda task: (-task["elapsed_s"], task.get("task_id", "")))
    return timed[:top]


def render_manifest(manifest: Dict[str, Any], top: int = 10) -> str:
    """The full ``obs show`` document for one manifest."""
    settings = manifest.get("settings", {})
    environment = manifest.get("environment", {})
    lines = [
        f"run manifest ({manifest.get('schema')})",
        f"  command:     {manifest.get('command')}",
        f"  status:      {manifest.get('status')}",
        f"  fingerprint: {manifest.get('fingerprint', '')[:16]}",
        (f"  settings:    instructions={settings.get('instructions')} "
         f"seed={settings.get('seed')} "
         f"workloads={','.join(settings.get('workloads', []))}"),
        (f"  environment: python={environment.get('python')} "
         f"cpus={environment.get('cpus')} jobs={manifest.get('jobs')}"),
        "",
        "timeline:",
    ]
    lines.extend(render_timeline(manifest.get("spans", [])))

    tasks = manifest.get("tasks", [])
    executed = [task for task in tasks if task.get("worker") != "resumed"]
    resumed = len(tasks) - len(executed)
    lines.append("")
    lines.append(f"tasks: {len(executed)} executed, {resumed} resumed")
    slowest = slowest_tasks(tasks, top=top)
    if slowest:
        lines.append(f"slowest {len(slowest)} tasks:")
        for task in slowest:
            retry = (f"  (attempt {task['attempt']})"
                     if task.get("attempt", 1) > 1 else "")
            lines.append(
                f"  {task['elapsed_s']:9.3f}s  [{task.get('worker', '?')}] "
                f"{task.get('task', task.get('task_id', '?'))}{retry}")

    retried = [task for task in tasks if task.get("attempt", 1) > 1]
    events = manifest.get("events", [])
    lines.append("")
    lines.append(f"stragglers & retries: {len(retried)} retried tasks, "
                 f"{len(events)} events")
    for task in retried:
        lines.append(
            f"  retried: {task.get('task', task.get('task_id', '?'))} "
            f"succeeded on attempt {task['attempt']}")
    for event in events:
        attrs = event.get("attrs", {})
        suffix = f"  {_format_attrs(attrs)}" if attrs else ""
        span = f" during {event['span']}" if event.get("span") else ""
        lines.append(
            f"  {event.get('time', 0.0):9.3f}s  {event['name']}"
            f"{span}{suffix}")
    return "\n".join(lines)
