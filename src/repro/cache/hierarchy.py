"""Multi-level cache hierarchy with split and unified tiers.

The paper's 5-level processor has seven caches: split L1 I/D, split L2 I/D
and unified L3/L4/L5 (Section 4.1).  A :class:`CacheHierarchy` is a stack of
*tiers*; each tier is either split (separate instruction and data caches) or
unified.  An access walks the tiers front to back, is supplied by the first
tier whose (side-appropriate) cache holds the block — or by main memory —
and the block is then filled into every closer tier, which is exactly the
refill behaviour the MNM bookkeeping relies on.

The hierarchy is **filter-agnostic**: MNM bypass decisions change the time
and energy an access costs, never which caches end up holding the block
(bypassed lookups are skipped, refills still happen).  Timing and energy are
therefore computed *outside* this module, from the structural
:class:`AccessOutcome` plus a bypass vector — which also lets the experiment
runner evaluate many filters against a single simulation pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cache.cache import AccessKind, Cache, CacheConfig, CacheSide

#: Supplier value meaning "the request went all the way to main memory".
MEMORY_TIER: Optional[int] = None


@dataclass(frozen=True)
class TierConfig:
    """One hierarchy tier: either unified or split into I and D caches."""

    instruction: Optional[CacheConfig] = None
    data: Optional[CacheConfig] = None
    unified: Optional[CacheConfig] = None

    def __post_init__(self) -> None:
        if self.unified is not None:
            if self.instruction is not None or self.data is not None:
                raise ValueError("a unified tier cannot also have split caches")
            if self.unified.side is not CacheSide.UNIFIED:
                raise ValueError(
                    f"{self.unified.name}: unified tier cache must have side=UNIFIED"
                )
        else:
            if self.instruction is None or self.data is None:
                raise ValueError(
                    "a split tier needs both an instruction and a data cache"
                )
            if self.instruction.side is not CacheSide.INSTRUCTION:
                raise ValueError(
                    f"{self.instruction.name}: instruction cache must have "
                    "side=INSTRUCTION"
                )
            if self.data.side is not CacheSide.DATA:
                raise ValueError(
                    f"{self.data.name}: data cache must have side=DATA"
                )

    @property
    def split(self) -> bool:
        return self.unified is None

    @property
    def configs(self) -> Tuple[CacheConfig, ...]:
        if self.unified is not None:
            return (self.unified,)
        if self.instruction is None or self.data is None:
            # Unreachable through __init__ (__post_init__ validates), but
            # must hold even when validation was bypassed — and must keep
            # firing under ``python -O``, which strips asserts (R005).
            raise RuntimeError(
                "split tier is missing its instruction/data cache; "
                "TierConfig validation was bypassed"
            )
        return (self.instruction, self.data)

    @classmethod
    def make_split(cls, instruction: CacheConfig, data: CacheConfig) -> "TierConfig":
        return cls(instruction=instruction, data=data)

    @classmethod
    def make_unified(cls, unified: CacheConfig) -> "TierConfig":
        return cls(unified=unified)


@dataclass(frozen=True)
class HierarchyConfig:
    """Full hierarchy description.

    Attributes:
        name: label used in reports, e.g. ``"paper-5level"``.
        tiers: tier configurations, closest to the core first.
        memory_latency: cycles to fetch a block from main memory.
    """

    name: str
    tiers: Tuple[TierConfig, ...]
    memory_latency: int

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a hierarchy needs at least one tier")
        if self.memory_latency < 1:
            raise ValueError(
                f"memory_latency must be >= 1, got {self.memory_latency}"
            )
        for position, tier in enumerate(self.tiers, start=1):
            for config in tier.configs:
                if config.level != position:
                    raise ValueError(
                        f"{config.name}: config.level={config.level} but the "
                        f"cache sits at tier {position}"
                    )

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    @property
    def num_caches(self) -> int:
        return sum(len(tier.configs) for tier in self.tiers)

    @property
    def mnm_granule(self) -> int:
        """MNM bookkeeping block size: the tier-2 block size (Section 3.1).

        For a hierarchy with a single tier (no MNM target levels) this falls
        back to the tier-1 block size.
        """
        tier = self.tiers[1] if self.num_tiers >= 2 else self.tiers[0]
        return min(config.block_size for config in tier.configs)

    def describe(self) -> str:
        lines = [f"{self.name}: {self.num_tiers} tiers, memory {self.memory_latency}cyc"]
        for tier in self.tiers:
            lines.extend("  " + config.describe() for config in tier.configs)
        return "\n".join(lines)


@dataclass(frozen=True)
class AccessOutcome:
    """Structural result of one reference walking the hierarchy.

    Attributes:
        address: the byte address accessed.
        kind: instruction fetch / load / store.
        hits: per-tier booleans; ``hits[i]`` is True iff the tier ``i+1``
            cache held the block *before* this access.  Entries past the
            supplying tier are False (those tiers were not reached).
        supplier: 1-based tier that supplied the data, or
            :data:`MEMORY_TIER` (None) when main memory did.
    """

    address: int
    kind: AccessKind
    hits: Tuple[bool, ...]
    supplier: Optional[int]

    @property
    def tiers_missed(self) -> int:
        """How many cache tiers missed before the block was found."""
        limit = len(self.hits) if self.supplier is MEMORY_TIER else self.supplier - 1
        return limit

    def missed_at(self, tier: int) -> bool:
        """True if the tier (1-based) was reached and missed."""
        return tier <= self.tiers_missed

    @property
    def mnm_candidate_misses(self) -> int:
        """Misses the MNM could have identified: tiers 2..supplier-1.

        The MNM never predicts level-1 misses (Section 4.2: "we do not
        predict misses in the first level cache"), so a request served by
        tier *j* offers ``j - 2`` identifiable misses (``num_tiers - 1``
        when served by memory).
        """
        return max(self.tiers_missed - 1, 0)


class CacheHierarchy:
    """Simulates a multi-level cache hierarchy (state + events, no timing).

    Args:
        config: the hierarchy description.
        writeback: when True, a dirty block evicted from tier *t* is
            written back into the tier *t+1* cache serving its side
            (marking it dirty there); dirty blocks leaving the last tier
            count as memory writebacks.  The paper's experiments don't
            model writeback traffic (its energy effect is
            design-independent), so the default is off; the option exists
            for the writeback ablation and downstream users.
        inclusive: when True, evicting a block from tier *t* back-
            invalidates it from every closer tier (strict inclusion).
            The paper explicitly does **not** assume inclusion (Section
            3), so the default is non-inclusive; the inclusion ablation
            measures how the choice shifts MNM coverage (back-
            invalidations are replacements the filters observe).
    """

    def __init__(
        self,
        config: HierarchyConfig,
        writeback: bool = False,
        inclusive: bool = False,
    ) -> None:
        self.config = config
        self.writeback = writeback
        self.inclusive = inclusive
        self.memory_writebacks = 0
        self.back_invalidations = 0
        #: Per-victim-cache share of ``back_invalidations``: how many blocks
        #: each *inner* cache lost to inclusion enforcement (keyed by the
        #: inner cache's config name; the values always sum to the total).
        self.back_invalidation_counts: Dict[str, int] = {}
        self._tiers: List[Tuple[Cache, ...]] = []
        for tier_config in config.tiers:
            caches = tuple(Cache(c) for c in tier_config.configs)
            self._tiers.append(caches)
        # Built once, used on every access: the cache serving each kind at
        # every tier (loads and stores share the data route), and the
        # ``hits`` tuple of every supplier (None: main memory).
        tiers = range(1, len(self._tiers) + 1)
        self._instruction_route = tuple(
            self.cache_for(tier, AccessKind.INSTRUCTION) for tier in tiers)
        self._data_route = tuple(
            self.cache_for(tier, AccessKind.LOAD) for tier in tiers)
        self._hits = {supplier: tuple(tier == supplier for tier in tiers)
                      for supplier in (MEMORY_TIER, *tiers)}
        if inclusive:
            for tier_index, caches in enumerate(self._tiers[1:], start=2):
                for cache in caches:
                    cache.add_replace_listener(
                        self._make_back_invalidator(tier_index)
                    )

    def _make_back_invalidator(self, tier: int):
        from repro.cache.cache import CacheSide

        def compatible(outer: Cache, inner: Cache) -> bool:
            if outer.config.side is CacheSide.UNIFIED:
                return True
            return inner.config.side in (outer.config.side, CacheSide.UNIFIED)

        def on_replace(cache: Cache, victim_block: int) -> None:
            base = victim_block << cache.config.offset_bits
            counts = self.back_invalidation_counts
            for closer in range(1, tier):
                for inner in self._tiers[closer - 1]:
                    if compatible(cache, inner):
                        dropped = inner.invalidate_range(
                            base, cache.config.block_size
                        )
                        if dropped:
                            self.back_invalidations += dropped
                            name = inner.config.name
                            counts[name] = counts.get(name, 0) + dropped

        return on_replace

    # ------------------------------------------------------------- topology

    @property
    def num_tiers(self) -> int:
        return len(self._tiers)

    def cache_for(self, tier: int, kind: AccessKind) -> Cache:
        """The cache serving ``kind`` at 1-based ``tier``."""
        caches = self._tiers[tier - 1]
        for cache in caches:
            if cache.config.side.serves(kind):
                return cache
        raise LookupError(f"tier {tier} has no cache serving {kind}")

    def caches_at(self, tier: int) -> Tuple[Cache, ...]:
        """All caches at 1-based ``tier``."""
        return self._tiers[tier - 1]

    def all_caches(self) -> Iterator[Tuple[int, Cache]]:
        """Yield ``(tier, cache)`` for every cache, closest tier first."""
        for index, caches in enumerate(self._tiers, start=1):
            for cache in caches:
                yield index, cache

    def find_cache(self, name: str) -> Cache:
        """Look a cache up by its config name (e.g. ``"ul3"``)."""
        for _, cache in self.all_caches():
            if cache.config.name == name:
                return cache
        raise LookupError(f"no cache named {name!r}")

    # --------------------------------------------------------------- access

    def access(self, address: int, kind: AccessKind) -> AccessOutcome:
        """Walk the hierarchy for one reference and update cache state.

        Tiers are probed front to back until one hits (or memory supplies
        the block); the block is then filled into every missing tier on the
        way back, firing place/replace events that the MNM observes.
        """
        route = (self._instruction_route if kind is AccessKind.INSTRUCTION
                 else self._data_route)
        write = kind is AccessKind.STORE
        supplier: Optional[int] = MEMORY_TIER
        tier = 0
        for cache in route:
            tier += 1
            if cache.probe(address, write=write):
                supplier = tier
                break

        fill_limit = len(route) if supplier is MEMORY_TIER else supplier - 1
        # Refill farthest-first: the block lands in the outer levels before
        # the inner ones, mirroring the return path of the data.
        for tier in range(fill_limit, 0, -1):
            cache = route[tier - 1]
            evicted = cache.fill(address, dirty=write and tier == 1)
            if self.writeback and evicted is not None and cache.last_evicted_dirty:
                self._write_back(evicted, tier, kind)

        return AccessOutcome(
            address=address, kind=kind, hits=self._hits[supplier],
            supplier=supplier,
        )

    def _write_back(self, victim_block: int, from_tier: int,
                    kind: AccessKind) -> None:
        """Push a dirty victim into the next tier (cascading if needed)."""
        cache = self.cache_for(from_tier, kind)
        victim_address = victim_block << cache.config.offset_bits
        tier = from_tier + 1
        while tier <= self.num_tiers:
            target = self.cache_for(tier, kind)
            evicted = target.fill(victim_address, dirty=True)
            if evicted is None or not target.last_evicted_dirty:
                return
            victim_address = evicted << target.config.offset_bits
            tier += 1
        self.memory_writebacks += 1

    def where_is(self, address: int, kind: AccessKind) -> Optional[int]:
        """First tier whose ``kind``-side cache holds ``address`` (no updates).

        Returns :data:`MEMORY_TIER` when no cache holds it.  This is the
        oracle used by the perfect MNM.
        """
        for tier in range(1, self.num_tiers + 1):
            if self.cache_for(tier, kind).contains(address):
                return tier
        return MEMORY_TIER

    def flush(self) -> None:
        """Flush every cache (the MNM resets its counters on flush too)."""
        for _, cache in self.all_caches():
            cache.flush()

    def reset_stats(self) -> None:
        for _, cache in self.all_caches():
            cache.stats.reset()

    def export_stats(self, registry) -> None:
        """Fold per-cache probe/hit/miss totals into a telemetry registry.

        Adds each cache's current counters to ``cache.<name>.probes`` /
        ``.hits`` / ``.misses``; call once at the end of a run so
        multi-run harnesses accumulate across workloads.  ``registry``
        is a :class:`repro.telemetry.MetricsRegistry` (duck-typed to
        avoid a hard dependency from the cache layer on telemetry).
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

    def run(self, references: Sequence[Tuple[int, AccessKind]]) -> List[AccessOutcome]:
        """Convenience: access a sequence of ``(address, kind)`` pairs."""
        return [self.access(address, kind) for address, kind in references]

    def __repr__(self) -> str:
        return f"CacheHierarchy({self.config.name!r}, tiers={self.num_tiers})"
