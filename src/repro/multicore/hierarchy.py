"""Per-core private L1s over the shared tail of a single-core hierarchy.

A :class:`MulticoreHierarchy` takes the same :class:`~repro.cache.
hierarchy.HierarchyConfig` the single-core simulator uses and re-plumbs
it for N contexts: tier 1 is replicated per core (cache names gain a
``c<i>_`` prefix), tiers 2+ are instantiated once and shared.  Three
kinds of cross-core traffic the paper never had to model appear here:

* **competitive fills** — core *j*'s refill lands in a shared cache that
  core *i*'s filters are watching;
* **coherence invalidations** — a STORE by one core drops the block from
  every other core's private L1 (write-invalidate);
* **back-invalidations** — under the inclusive policy, a shared-tier
  eviction recalls the block from *every* closer cache, private L1s
  included; under the exclusive policy the shared L2 instead holds only
  L1 victims (a tier-2 hit moves the block into the L1).

Like the single-core :class:`~repro.cache.hierarchy.CacheHierarchy`, this
class is filter-agnostic and timing-free: it maintains state and fires
place/replace events; the MNM layer (:mod:`repro.multicore.mnm`) decides
what each event means to each core's filters.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.cache import AccessKind, Cache, CacheSide
from repro.cache.hierarchy import (
    MEMORY_TIER,
    AccessOutcome,
    HierarchyConfig,
)
from repro.multicore.config import MulticoreConfig


def _compatible(outer: Cache, inner: Cache) -> bool:
    """Could ``inner`` hold a block that ``outer`` holds (side overlap)?"""
    if outer.config.side is CacheSide.UNIFIED:
        return True
    return inner.config.side in (outer.config.side, CacheSide.UNIFIED)


class MulticoreHierarchy:
    """N private L1 tiers feeding the shared tiers of one hierarchy config.

    Args:
        config: the single-core hierarchy description; tier 1 is
            replicated per core, tiers 2+ are shared.  Needs at least two
            tiers (with nothing shared there is no contention to model).
        mc: core count and shared-tier policy.
    """

    def __init__(self, config: HierarchyConfig, mc: MulticoreConfig) -> None:
        if config.num_tiers < 2:
            raise ValueError(
                f"{config.name}: a multicore hierarchy needs a shared tier "
                f"(got {config.num_tiers} tier)"
            )
        self.config = config
        self.mc = mc
        self.cores = mc.cores
        self.exclusive_l2 = mc.l2_policy == "exclusive"
        #: Core whose access is currently walking the hierarchy; event
        #: listeners read this to attribute fills/evictions to a context.
        self.active_core = 0
        self.back_invalidations = 0
        self.back_invalidation_counts: Dict[str, int] = {}
        self.coherence_invalidations = 0

        self._private: List[Tuple[Cache, ...]] = []
        for core in range(mc.cores):
            caches = tuple(
                Cache(replace(cache_config, name=f"c{core}_{cache_config.name}"))
                for cache_config in config.tiers[0].configs
            )
            self._private.append(caches)
        self._shared: List[Tuple[Cache, ...]] = [
            tuple(Cache(c) for c in tier_config.configs)
            for tier_config in config.tiers[1:]
        ]
        if mc.l2_policy == "inclusive":
            for tier, caches in enumerate(self._shared, start=2):
                for cache in caches:
                    cache.add_replace_listener(
                        self._make_back_invalidator(tier, cache))
        # Built once, used on every access: each (core, kind)'s L1 and
        # shared route (tiers 2..N), the ``hits`` tuple of every supplier
        # (None: main memory), and each core's peer L1s in core order.
        self._routes: Dict[Tuple[int, AccessKind],
                           Tuple[Cache, Tuple[Cache, ...]]] = {
            (core, kind): (
                self.l1_for(core, kind),
                tuple(self.shared_cache_for(tier, kind)
                      for tier in range(2, config.num_tiers + 1)),
            )
            for core in range(mc.cores) for kind in AccessKind
        }
        tiers = range(1, config.num_tiers + 1)
        self._hits = {supplier: tuple(tier == supplier for tier in tiers)
                      for supplier in (MEMORY_TIER, *tiers)}
        self._peers = tuple(
            tuple(cache for peer, caches in enumerate(self._private)
                  if peer != core for cache in caches)
            for core in range(mc.cores)
        )

    def _make_back_invalidator(self, tier: int, outer: Cache):
        # Every closer cache that could hold ``outer``'s blocks: the shared
        # tiers first, then the private L1s in core order.
        inner = tuple(
            cache
            for caches in (*self._shared[: tier - 2], *self._private)
            for cache in caches if _compatible(outer, cache)
        )
        offset_bits = outer.config.offset_bits
        size = outer.config.block_size

        def on_replace(_cache: Cache, victim_block: int) -> None:
            base = victim_block << offset_bits
            counts = self.back_invalidation_counts
            for cache in inner:
                dropped = cache.invalidate_range(base, size)
                if dropped:
                    self.back_invalidations += dropped
                    name = cache.config.name
                    counts[name] = counts.get(name, 0) + dropped

        return on_replace

    # ------------------------------------------------------------- topology

    @property
    def num_tiers(self) -> int:
        return self.config.num_tiers

    def l1_for(self, core: int, kind: AccessKind) -> Cache:
        """Core ``core``'s private tier-1 cache serving ``kind``."""
        for cache in self._private[core]:
            if cache.config.side.serves(kind):
                return cache
        raise LookupError(f"core {core} has no L1 serving {kind}")

    def shared_cache_for(self, tier: int, kind: AccessKind) -> Cache:
        """The shared cache serving ``kind`` at 1-based ``tier`` (>= 2)."""
        for cache in self._shared[tier - 2]:
            if cache.config.side.serves(kind):
                return cache
        raise LookupError(f"tier {tier} has no cache serving {kind}")

    def shared_caches(self) -> Iterator[Tuple[int, Cache]]:
        """Yield ``(tier, cache)`` for the shared tiers, closest first."""
        for index, caches in enumerate(self._shared, start=2):
            for cache in caches:
                yield index, cache

    def all_caches(self) -> Iterator[Tuple[int, Cache]]:
        """Every cache: per-core L1s (tier 1) first, then shared tiers."""
        for caches in self._private:
            for cache in caches:
                yield 1, cache
        for tier, cache in self.shared_caches():
            yield tier, cache

    # --------------------------------------------------------------- access

    def access(self, core: int, address: int, kind: AccessKind) -> AccessOutcome:
        """Walk the hierarchy for one reference issued by ``core``.

        Same structural contract as the single-core
        :meth:`~repro.cache.hierarchy.CacheHierarchy.access` — probes
        front to back, refills farthest-first — with ``hits[0]``
        describing the issuing core's own L1.
        """
        self.active_core = core
        write = kind is AccessKind.STORE
        l1, shared = self._routes[core, kind]
        if l1.probe(address, write=write):
            supplier: Optional[int] = 1
        else:
            supplier = MEMORY_TIER
            tier = 1
            for cache in shared:
                tier += 1
                if cache.probe(address, write=write):
                    supplier = tier
                    break
            # ``shared[tier - 2]`` is the cache serving ``kind`` at ``tier``.
            fill_limit = (
                len(shared) + 1 if supplier is MEMORY_TIER else supplier - 1
            )
            if self.exclusive_l2:
                # The shared L2 never receives demand fills: blocks enter
                # it only as L1 victims, and a tier-2 hit *moves* the
                # block into the requesting L1.
                for tier in range(fill_limit, 2, -1):
                    shared[tier - 2].fill(address)
                if supplier == 2:
                    shared[0].invalidate_range(address, 1)
                victim = l1.fill(address, dirty=write)
                if victim is not None:
                    shared[0].fill(victim << l1.config.offset_bits)
            else:
                for tier in range(fill_limit, 1, -1):
                    shared[tier - 2].fill(address)
                l1.fill(address, dirty=write)

        if write:
            # Write-invalidate coherence: drop peers' private copies.
            for cache in self._peers[core]:
                self.coherence_invalidations += cache.invalidate_range(
                    address, 1
                )
        return AccessOutcome(
            address=address, kind=kind, hits=self._hits[supplier],
            supplier=supplier,
        )

    def where_is(self, core: int, address: int,
                 kind: AccessKind) -> Optional[int]:
        """First tier holding ``address`` from ``core``'s point of view."""
        if self.l1_for(core, kind).contains(address):
            return 1
        for tier in range(2, self.num_tiers + 1):
            if self.shared_cache_for(tier, kind).contains(address):
                return tier
        return MEMORY_TIER

    # ----------------------------------------------------------------- misc

    def flush(self) -> None:
        for _, cache in self.all_caches():
            cache.flush()

    def reset_stats(self) -> None:
        """Zero cache counters *and* the cross-core traffic counters.

        Unlike the single-core hierarchy this also resets the
        invalidation totals: the multicore report treats them as
        measured-window quantities, so the warmup boundary must clear
        them.
        """
        for _, cache in self.all_caches():
            cache.stats.reset()
        self.back_invalidations = 0
        self.back_invalidation_counts = {}
        self.coherence_invalidations = 0

    def export_stats(self, registry) -> None:
        """Fold per-cache counters into a telemetry registry.

        Mirrors :meth:`repro.cache.hierarchy.CacheHierarchy.export_stats`
        (probes/hits/misses plus ``cache.<name>.back_invalidations``) and
        adds the coherence total under ``multicore.coherence_invalidations``.
        """
        for _, cache in self.all_caches():
            stats = cache.stats
            base = f"cache.{cache.config.name}"
            registry.counter(base + ".probes").inc(stats.probes)
            registry.counter(base + ".hits").inc(stats.hits)
            registry.counter(base + ".misses").inc(stats.misses)
            dropped = self.back_invalidation_counts.get(cache.config.name, 0)
            if dropped:
                registry.counter(base + ".back_invalidations").inc(dropped)
        if self.coherence_invalidations:
            registry.counter("multicore.coherence_invalidations").inc(
                self.coherence_invalidations
            )

    def __repr__(self) -> str:
        return (
            f"MulticoreHierarchy({self.config.name!r}, cores={self.cores}, "
            f"l2_policy={self.mc.l2_policy!r})"
        )
