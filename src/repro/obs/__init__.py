"""Run observatory: persisted run manifests and the ``obs`` CLI.

Every run directory (``--run-dir``) gets a schema-versioned **run
manifest** written beside its pass cache: the config fingerprint, the
design line-up, the span tree recorded across parent and workers
(:mod:`repro.telemetry.spans`), the merged metrics snapshot, the
resilience events (retries, timeouts, pool rebuilds, degradations) and
an environment capture.  The ``repro-mnm obs`` subcommands read those
manifests back:

* ``obs show`` — terminal timeline, slowest tasks, straggler report;
* ``obs diff`` — two manifests → per-phase wall-clock + counter deltas.

The manifest is observability output, not simulation output: its
timings vary run to run, so it is excluded from the serial≡parallel
byte-identity contract exactly like the ``executor.*`` counters.
"""

from __future__ import annotations

from repro.obs.diff import diff_manifests, render_diff
from repro.obs.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    build_manifest,
    config_fingerprint,
    load_manifest,
    write_manifest,
)
from repro.obs.show import render_manifest

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "config_fingerprint",
    "diff_manifests",
    "load_manifest",
    "render_diff",
    "render_manifest",
    "write_manifest",
]
