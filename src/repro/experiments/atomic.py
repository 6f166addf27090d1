"""Blessed atomic filesystem write idioms (the R009 surface).

Every durable artifact in the repo — pass-cache entries and run
manifests — commits through one of two idioms, each of which guarantees
a reader never observes a torn file:

* :func:`replace_atomic` — temp file + ``os.replace``: last-writer-wins
  replacement.  For single-logical-writer documents (a run's manifest)
  where the newest content should stick.
* :func:`publish_linked` — temp file + ``os.link``: first-writer-wins
  publication.  For content-addressed stores (the disk pass cache)
  where concurrent writers carry identical payloads and the first
  fully-written one should stick; returns whether *this* writer won,
  so callers can count races.

This module is deliberately the **only** place those syscall sequences
are spelled out: R009 (:mod:`repro.staticcheck.rules.atomicity`) flags
raw ``open(..., "w")``-family calls inside the crash-safety-scoped
modules, so new write sites either route through here or carry a
written rationale.  It sits in experiments ring 0 — importable by the
cache, the manifest and every backend without dragging anything else in.

All helpers fsync the temp file before commit by default; callers on a
deliberate durability/throughput trade (the pass cache: entries are
recomputable) pass ``fsync=False``.
"""

from __future__ import annotations

import os
import threading


def _temp_path(path: str) -> str:
    """A temp name beside ``path``, unique per process *and* thread.

    Concurrent writers in one process (threads publishing the same
    entry) must not share a temp file, or one's ``os.replace`` moves the
    other's bytes and the loser's rename fails.
    """
    return f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"


def _write_temp(tmp_path: str, data: bytes, fsync: bool) -> None:
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())


def _discard(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def replace_atomic(path: str, data: bytes, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``data`` (last writer wins).

    A crash at any point leaves either the old content or the new —
    never a mixture, never a truncation.  The temp file lives beside
    the target (same filesystem, pid- and thread-suffixed) so
    ``os.replace`` is a rename, and is cleaned up on failure.
    """
    tmp_path = _temp_path(path)
    try:
        _write_temp(tmp_path, data, fsync)
        os.replace(tmp_path, path)
    except OSError:
        _discard(tmp_path)
        raise


def publish_linked(path: str, data: bytes, fsync: bool = True) -> bool:
    """Publish ``data`` at ``path``, first fully-written writer wins.

    Returns True when this call claimed the name (or fell back to an
    atomic replace on a filesystem without hard links — equivalent when
    payloads are content-addressed), False when a concurrent writer
    already published.  Other ``OSError``\\ s propagate after the temp
    file is discarded.
    """
    tmp_path = _temp_path(path)
    try:
        _write_temp(tmp_path, data, fsync)
        try:
            os.link(tmp_path, path)
        except FileExistsError:
            _discard(tmp_path)
            return False
        except OSError:
            # No hard links here (or a cross-device layout): degrade to
            # last-writer-wins replacement, still atomic.
            os.replace(tmp_path, path)
            return True
        _discard(tmp_path)
        return True
    except OSError:
        _discard(tmp_path)
        raise
