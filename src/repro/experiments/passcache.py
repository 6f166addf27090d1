"""Content-addressed cache for simulation passes.

Replaces the old name-keyed ``_PASS_CACHE`` dict in
:mod:`repro.experiments.base`, which keyed reference passes on
``hierarchy_config.name`` and ``design.name`` only — two configurations
sharing a name but differing in geometry, latency, placement or
``perfect`` collided and silently served stale results.  Keys here are
*structural fingerprints*: every field of the hierarchy, design and
settings dataclasses participates, including the parameters captured in
filter-factory closures, so equal keys imply equal simulations.

Two tiers:

* **memory** — a per-process dict mapping the full fingerprint string to
  the live result object (identity-preserving, like the old cache);
* **disk** (optional, ``--cache-dir``) — one pickle per entry named by
  the fingerprint's SHA-256, wrapped in a schema-versioned envelope so a
  cache written by an older layout is rejected (treated as a miss), never
  unpickled into the wrong shape.  The disk tier is a *shared store*
  safe under concurrent multi-process writers — pool workers, the
  parent and other runs sharing a ``--cache-dir`` may all write the
  same directory:

  * writes land via temp file + ``os.link`` onto the final name —
    atomic and **single-writer-wins**: the first fully-written envelope
    for a key sticks, concurrent twins discard (keys are content
    addresses, so twins carry identical payloads anyway);
  * an entry that fails to read back (torn write, garbled bytes, stale
    schema) is **quarantined** — renamed aside, counted, warned about —
    so the slot is free for the recomputed result instead of wedging
    every future run into recomputing forever.

The process-wide instance is read with :func:`get_pass_cache` and
swapped with :func:`configure_pass_cache` (the CLI's ``--cache-dir`` /
``--no-cache``); the default is memory-only.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import re
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro import telemetry
from repro.experiments.atomic import publish_linked

if TYPE_CHECKING:  # avoid an import cycle with repro.experiments.base
    from repro.cache.hierarchy import HierarchyConfig
    from repro.core.machine import MNMDesign
    from repro.experiments.base import ExperimentSettings
    from repro.multicore.config import MulticoreConfig

#: Envelope magic + layout version.  Bump the version whenever the
#: pickled result dataclasses change shape, or the simulated values they
#: hold change (version 2: energies priced once per access class); old
#: entries then read as misses, never as stale layouts or numbers.
CACHE_MAGIC = "repro-passcache"
SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------

def _stable_repr(value: Any) -> str:
    """A repr that is deterministic across processes.

    Plain data reprs (ints, floats, strings, tuples of them) already are;
    callables and enums need help, and anything whose default repr embeds
    a memory address is reduced to its type name.
    """
    if callable(value):
        return _callable_fingerprint(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_stable_repr(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(
            f"{_stable_repr(k)}:{_stable_repr(v)}" for k, v in items) + "}"
    text = repr(value)
    if " at 0x" in text:  # id-laden default repr: not stable across runs
        return f"<{type(value).__module__}.{type(value).__qualname__}>"
    return text


def _callable_fingerprint(fn: Any) -> str:
    """Identify a filter factory by code identity plus captured values.

    The preset factories (``smnm_factory`` & friends) return closures over
    their numeric parameters; module + qualname pins the code and the
    closure cells pin the parameters, so ``smnm_factory(10, 2)`` and
    ``smnm_factory(13, 2)`` fingerprint differently while two independent
    calls of ``smnm_factory(10, 2)`` fingerprint identically.
    """
    parts = [
        getattr(fn, "__module__", "?") or "?",
        getattr(fn, "__qualname__", type(fn).__qualname__),
    ]
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None) or ()
    freevars = code.co_freevars if code is not None else ()
    cells = []
    for name, cell in zip(freevars, closure):
        try:
            contents = _stable_repr(cell.cell_contents)
        except ValueError:  # unfilled cell
            contents = "<empty>"
        cells.append(f"{name}={contents}")
    if cells:
        parts.append("closure(" + ",".join(cells) + ")")
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        parts.append("defaults" + _stable_repr(defaults))
    return ":".join(parts)


def fingerprint_hierarchy(config: "HierarchyConfig") -> str:
    """Full structural fingerprint of a hierarchy configuration.

    ``HierarchyConfig`` is frozen dataclasses all the way down (cache
    geometries, latencies, sides), so its repr covers every field.
    """
    return repr(config)


def fingerprint_design(design: Optional["MNMDesign"]) -> str:
    """Full structural fingerprint of one MNM design (None = baseline)."""
    if design is None:
        return "NONE"
    return "|".join((
        design.name,
        f"perfect={design.perfect}",
        f"rmnm={_stable_repr(design.rmnm_geometry)}",
        f"placement={design.placement.value}",
        f"delay={design.delay}",
        f"levels={_stable_repr(dict(design.level_factories))}",
        f"default={_stable_repr(tuple(design.default_factories))}",
    ))


def fingerprint_settings(settings: "ExperimentSettings") -> str:
    """Fingerprint of the settings fields that shape a simulation."""
    return (f"instructions={settings.num_instructions}"
            f"|warmup={settings.warmup_fraction!r}"
            f"|seed={settings.seed}")


def pass_key(
    workload: str,
    hierarchy_config: "HierarchyConfig",
    designs: Sequence["MNMDesign"],
    settings: "ExperimentSettings",
) -> str:
    """Cache key for one multi-design reference pass."""
    return "\x1f".join((
        "pass", workload,
        fingerprint_settings(settings),
        fingerprint_hierarchy(hierarchy_config),
        ";".join(fingerprint_design(d) for d in designs),
    ))


def core_key(
    workload: str,
    hierarchy_config: "HierarchyConfig",
    design: Optional["MNMDesign"],
    settings: "ExperimentSettings",
) -> str:
    """Cache key for one full-system (core) run."""
    return "\x1f".join((
        "core", workload,
        fingerprint_settings(settings),
        fingerprint_hierarchy(hierarchy_config),
        fingerprint_design(design),
    ))


def multicore_key(
    workloads: Sequence[str],
    hierarchy_config: "HierarchyConfig",
    designs: Sequence["MNMDesign"],
    mc: "MulticoreConfig",
    settings: "ExperimentSettings",
) -> str:
    """Cache key for one multi-design multicore contention pass.

    ``mc.fingerprint()`` covers every behavioural knob of the topology —
    core count, MNM sharing, L2 policy, schedule *and* schedule seed — so
    two runs that could interleave differently never share an entry
    (pinned by ``tests/multicore/test_passcache_multicore.py``).
    """
    return "\x1f".join((
        "multicore", ",".join(workloads),
        mc.fingerprint(),
        fingerprint_settings(settings),
        fingerprint_hierarchy(hierarchy_config),
        ";".join(fingerprint_design(d) for d in designs),
    ))


def key_digest(key: str) -> str:
    """The SHA-256 hex digest a cache key files under."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


#: A published disk entry's file name.  Temp files (``<entry>.tmp.*``)
#: and quarantined entries (``<entry>.quarantine.*``) do not match.
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.pkl")


def published_digests(cache_dir: str) -> List[str]:
    """The key digests of the entries published in ``cache_dir``.

    The run journal (:mod:`repro.experiments.checkpoint`) reads a run
    directory's completed tasks off these names.  A missing directory
    holds none.
    """
    try:
        names = os.listdir(cache_dir)
    except FileNotFoundError:
        return []
    return [name[:-len(".pkl")] for name in names
            if _ENTRY_NAME.fullmatch(name)]


def _fault_injector():
    """The active chaos injector, if any (lazy import: tests/CI only)."""
    from repro.testing.faults import get_injector

    return get_injector()


# ---------------------------------------------------------------------------
# The two-tier cache
# ---------------------------------------------------------------------------

class CacheStats:
    """Lookup/store counters for one :class:`PassCache` instance."""

    __slots__ = ("lookups", "memory_hits", "disk_hits", "misses", "stores")

    def __init__(self) -> None:
        self.lookups = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"CacheStats({self.to_dict()})"


class PassCache:
    """Memory + optional disk cache of simulation pass results.

    Values are whatever the pass produced (:class:`~repro.simulate.
    ReferencePassResult` or :class:`~repro.simulate.WorkloadRun`); the
    cache is agnostic as long as the value pickles.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 enabled: bool = True) -> None:
        self.cache_dir = cache_dir
        self.enabled = enabled
        self.stats = CacheStats()
        self._memory: Dict[str, Any] = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # -- lookup / store ----------------------------------------------------

    def lookup(self, key: str) -> Optional[Any]:
        """Memory tier first, then disk; None on miss (or when disabled)."""
        if not self.enabled:
            return None
        self.stats.lookups += 1
        value = self._memory.get(key)
        if value is not None:
            self.stats.memory_hits += 1
            return value
        value = self._disk_load(key)
        if value is not None:
            self.stats.disk_hits += 1
            self._memory[key] = value
            return value
        self.stats.misses += 1
        return None

    def store(self, key: str, value: Any) -> None:
        """Record a freshly computed result in both tiers."""
        if not self.enabled:
            return
        self.stats.stores += 1
        self._memory[key] = value
        if self.cache_dir:
            self._disk_store(key, value)

    def seed(self, key: str, value: Any) -> None:
        """Memory-tier-only store.

        The parallel executor uses this for results computed in worker
        processes: the workers already wrote the disk tier themselves, so
        the parent only needs the live objects.
        """
        if self.enabled:
            self._memory[key] = value

    def clear(self) -> None:
        """Drop the memory tier (the disk tier is persistent by design)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    # -- disk tier ---------------------------------------------------------

    def _path_for(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key_digest(key)}.pkl")

    def _degraded(self, key: str, counter: str, reason: str,
                  quarantine: bool = True) -> None:
        """Make a disk-tier degradation observable, not silent.

        Corrupt or stale entries still (correctly) read as misses — but
        an operator watching a warm cache recompute everything deserves
        to know why.  One counter bump + one warning line per event.

        ``quarantine`` additionally renames the bad file aside
        (``.quarantine.<pid>``): under the single-writer-wins store a
        corrupt entry squatting on the final name would otherwise block
        the recomputed result from ever landing, turning one torn write
        into a permanent recompute-every-run tax.
        """
        telemetry.get_registry().counter(f"cache.pass.disk.{counter}").inc()
        telemetry.get_logger("passcache").warning(
            f"disk cache entry degraded to a miss ({reason})",
            file=f"{key_digest(key)}.pkl")
        if not quarantine:
            return
        path = self._path_for(key)
        try:
            os.replace(path, f"{path}.quarantine.{os.getpid()}")
        except OSError:
            return
        telemetry.get_registry().counter(
            "cache.pass.disk.quarantined").inc()

    def _disk_load(self, key: str) -> Optional[Any]:
        if not self.cache_dir:
            return None
        path = self._path_for(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None  # an ordinary miss, not a degradation
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, ValueError) as exc:
            self._degraded(key, "corrupt", f"unreadable: {type(exc).__name__}")
            return None
        if not isinstance(envelope, dict) or envelope.get("magic") != CACHE_MAGIC:
            self._degraded(key, "corrupt", "bad envelope")
            return None
        if envelope.get("schema") != SCHEMA_VERSION:
            # written by another layout: miss, never misread; quarantined
            # so this layout's recompute can claim the slot
            self._degraded(
                key, "schema_mismatch",
                f"schema {envelope.get('schema')!r} != {SCHEMA_VERSION}")
            return None
        if envelope.get("key") != key:
            self._degraded(key, "corrupt", "key mismatch (digest collision)",
                           quarantine=False)
            return None  # SHA-256 filename collision guard
        return envelope.get("payload")

    def _disk_store(self, key: str, value: Any) -> None:
        envelope = {
            "magic": CACHE_MAGIC,
            "schema": SCHEMA_VERSION,
            "key": key,
            "payload": value,
        }
        path = self._path_for(key)
        data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        injector = _fault_injector()
        if injector is not None and injector.should_corrupt(key):
            # Chaos hook: garble the bytes that land on disk — loads must
            # then degrade to recomputation, never to wrong numbers.
            from repro.testing.faults import corrupt_bytes

            data = corrupt_bytes(data)
        try:
            # Single-writer-wins commit: the first fully-written envelope
            # for a key sticks, concurrent twins (workers computing the
            # same pure pass) discard.  fsync=False is a deliberate
            # durability trade: entries are recomputable, and torn tails
            # degrade to misses via the quarantine path.
            if not publish_linked(path, data, fsync=False):
                telemetry.get_registry().counter(
                    "cache.pass.disk.write_race").inc()
        except OSError:
            # a read-only or full cache directory degrades to memory-only
            pass


# ---------------------------------------------------------------------------
# Process-wide instance
# ---------------------------------------------------------------------------

_CACHE = PassCache()


def get_pass_cache() -> PassCache:
    """The process-wide pass cache (memory-only by default)."""
    return _CACHE


def configure_pass_cache(cache_dir: Optional[str] = None,
                         enabled: bool = True) -> PassCache:
    """Install (and return) a fresh pass cache with the given tiers.

    ``cache_dir=None`` keeps the cache memory-only; ``enabled=False``
    (the CLI's ``--no-cache``) makes every lookup a miss and every store
    a no-op, so passes always recompute.
    """
    global _CACHE
    _CACHE = PassCache(cache_dir=cache_dir, enabled=enabled)
    return _CACHE
