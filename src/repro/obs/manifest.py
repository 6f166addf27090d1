"""The run manifest: one schema-versioned document per run directory.

A manifest answers "what did this run actually do" after the fact: the
exact configuration (fingerprinted, so two manifests are comparable at a
glance), the design line-up, the full span tree with task/worker/attempt
attribution, the resilience events, the merged metrics snapshot and an
environment capture.  It is written **atomically** (temp file +
``os.replace``) beside the run journal, so a crash mid-write can never
leave a torn manifest — the same discipline the journal and pass cache
pin.

Deliberately absent: wall-clock timestamps.  Manifests are identified by
their config fingerprint and compared by their measurements; stamping
the time of day would violate the repo's no-wall-clock rule (R001) for
zero analytical value.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.experiments.atomic import replace_atomic
from repro.experiments.base import ExperimentSettings

#: Manifest layout version.  Bump whenever the document shape changes;
#: ``load_manifest`` rejects unknown schemas instead of misreading them.
MANIFEST_SCHEMA = "repro-run-manifest/v1"

#: The manifest's filename inside a run directory.
MANIFEST_NAME = "manifest.json"

#: Every top-level key :func:`build_manifest` may emit.  This is the
#: schema registry R010 cross-checks against the producer: add a key to
#: the document without registering it here (or vice versa) and
#: ``repro-mnm check`` fails.  Consumers (``obs show``/``diff``) may
#: rely on exactly this set existing in a v1 manifest.
MANIFEST_KEYS = frozenset({
    "schema", "command", "status", "fingerprint", "settings", "designs",
    "jobs", "environment", "journal", "spans", "events", "tasks",
    "metrics",
})


def settings_dict(settings: ExperimentSettings) -> Dict[str, Any]:
    """The settings fields that define a run (JSON-serialisable)."""
    return {
        "instructions": settings.num_instructions,
        "warmup_fraction": settings.warmup_fraction,
        "seed": settings.seed,
        "workloads": list(settings.workload_list),
    }


def config_fingerprint(command: str, settings: ExperimentSettings,
                       designs: Sequence[str],
                       selection: Optional[Mapping[str, Any]] = None) -> str:
    """sha256 over the canonical (command, settings, designs, selection).

    ``selection`` holds the command's parsed arguments that choose what
    the run simulates (its experiment ids, ``--skip-heavy``, the search
    or contention axes).  Two runs with the same fingerprint simulated
    the same thing — their manifests are directly comparable
    (``obs diff`` warns otherwise).
    """
    canonical = json.dumps(
        {
            "command": command,
            "settings": settings_dict(settings),
            "designs": sorted(designs),
            "selection": dict(selection or {}),
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def environment_capture() -> Dict[str, Any]:
    """Where the run happened: interpreter, platform, CPU budget."""
    return {
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": os.cpu_count() or 1,
    }


def build_manifest(
    command: str,
    settings: ExperimentSettings,
    status: str,
    spans_snapshot: Dict[str, Any],
    metrics_snapshot: Dict[str, Any],
    designs: Optional[Sequence[str]] = None,
    journal_completed: Optional[int] = None,
    jobs: Optional[int] = None,
    selection: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest document for one finished (or aborted) run.

    ``status`` is ``"ok"``, ``"interrupted"`` or ``"failed"`` — an
    interrupted run still writes its manifest, with open spans showing
    exactly where it stopped.  ``designs`` defaults to the paper line-up
    (what ``report``/``run``/``all`` simulate).  ``jobs`` is the worker
    count the run resolved and used; ``selection`` enters only the
    fingerprint (see :func:`config_fingerprint`).
    """
    if designs is None:
        from repro.core.presets import all_paper_design_names

        designs = list(all_paper_design_names())
    designs = list(designs)
    return {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "status": status,
        "fingerprint": config_fingerprint(command, settings, designs,
                                          selection),
        "settings": settings_dict(settings),
        "designs": designs,
        "jobs": jobs,
        "environment": environment_capture(),
        "journal": {"completed": journal_completed},
        "spans": spans_snapshot.get("spans", []),
        "events": spans_snapshot.get("events", []),
        "tasks": spans_snapshot.get("tasks", []),
        "metrics": metrics_snapshot,
    }


def write_manifest(run_dir: str, manifest: Dict[str, Any]) -> str:
    """Atomically write ``manifest`` into ``run_dir``; returns the path."""
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, MANIFEST_NAME)
    document = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    replace_atomic(path, document.encode("utf-8"))
    return path


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest back, validating its schema.

    ``path`` may be the manifest file itself or a run directory
    containing one.  Raises ``ValueError`` for documents of another
    shape and ``OSError`` for unreadable paths.
    """
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: not a run manifest")
    if document.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: unknown manifest schema "
            f"{document.get('schema')!r} (expected {MANIFEST_SCHEMA})")
    return document
