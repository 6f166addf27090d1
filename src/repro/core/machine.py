"""The Mostly No Machine: per-cache filters behind one query interface.

A design's filters are built in one place, :func:`build_banks`: one
*bank* — a (possibly composite) miss filter with its block mapper and
lookup counters — per (tier, cache, owner) slot, and one RMNM cache per
owner domain whose lanes cover the domain's banks (Sections 3.1–3.5);
:func:`bank_storage_bits` counts their state.  Both machines build
through them.  A :class:`MostlyNoMachine` is the one-domain case: one
bank every core shares per cache of level 2 and beyond (the MNM never
predicts level-1 misses).  :class:`repro.multicore.mnm.MulticoreMNM`
picks its slots per sharing topology.

A :class:`MostlyNoMachine` attaches to a :class:`~repro.cache.hierarchy.
CacheHierarchy` and wires its banks to the caches' placement/replacement
event streams, translating each cache's own block granularity to the MNM
granule (the L2 block size).

Querying the machine *before* an access yields the per-level miss-bit
vector that the hardware would tag onto the request (Section 2): bit *i*
set means "level *i* will miss — bypass it".  Because bypassing changes
time and energy but never cache contents, the machine is queried first and
the hierarchy accessed second, and the pair (bits, outcome) is everything
the timing/energy/coverage models need.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as _np

from repro.addresses import ADDRESS_BITS, BlockMapper, log2_exact
from repro.cache.cache import AccessKind, Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.core.base import FilterStats, MissFilter, NullFilter, Placement
from repro.core.hybrid import CompositeFilter, components_of
from repro.core.perfect import PerfectFilter
from repro.core.rmnm import RMNMCache, RMNMLane
from repro.telemetry import get_registry

#: Per-level definite-miss bits, index ``tier - 1``; bit 0 is always False.
MissBits = Tuple[bool, ...]


@dataclass(frozen=True)
class FilterBuildContext:
    """What a filter factory gets to know about the cache it will watch."""

    level: int
    cache_name: str
    granule_bits: int


FilterFactory = Callable[[FilterBuildContext], MissFilter]


@dataclass(frozen=True)
class MNMDesign:
    """A buildable MNM configuration.

    Attributes:
        name: configuration label (e.g. ``"HMNM4"``).
        level_factories: per-level filter factories; levels not listed fall
            back to ``default_factories``.
        default_factories: factories applied to levels without an explicit
            entry (the paper replicates single-technique configurations
            across all tracked levels).
        rmnm_geometry: optional ``(num_blocks, associativity)`` of a shared
            RMNM cache; one lane per tracked cache is added to each level's
            composite.
        perfect: build oracle filters instead (ignores the factory fields).
        placement: parallel or serial MNM (Figure 1).
        delay: MNM lookup delay in cycles (the paper uses 2).
    """

    name: str
    level_factories: Mapping[int, Tuple[FilterFactory, ...]] = field(
        default_factory=dict
    )
    default_factories: Tuple[FilterFactory, ...] = ()
    rmnm_geometry: Optional[Tuple[int, int]] = None
    perfect: bool = False
    placement: Placement = Placement.PARALLEL
    delay: int = 2

    def factories_for(self, level: int) -> Tuple[FilterFactory, ...]:
        """Filter factories applying to one cache level."""
        return tuple(self.level_factories.get(level, self.default_factories))

    def with_placement(self, placement: Placement) -> "MNMDesign":
        """Copy of this design with a different MNM position."""
        return MNMDesign(
            name=self.name,
            level_factories=self.level_factories,
            default_factories=self.default_factories,
            rmnm_geometry=self.rmnm_geometry,
            perfect=self.perfect,
            placement=placement,
            delay=self.delay,
        )


@dataclass
class Bank:
    """One filter bank: a filter watching one cache for one owner domain."""

    tier: int
    cache: Cache
    #: The owner core; None for a bank every core shares.
    core: Optional[int]
    filter: MissFilter
    mapper: BlockMapper
    stats: FilterStats


#: Where a bank goes: ``(tier, cache, owner core or None)``.
Slot = Tuple[int, Cache, Optional[int]]


def build_banks(
    design: MNMDesign, slots: Sequence[Slot], granule: int
) -> Tuple[List[Bank], Dict[Optional[int], RMNMCache]]:
    """``design``'s banks at ``slots``, in order, and its RMNM caches.

    A perfect design gets one :class:`PerfectFilter` per bank.  Otherwise
    a bank holds the filters of the design's factories for its tier and,
    with an RMNM geometry, the next lane of its owner domain's RMNM cache:
    one cache per owner, with one lane per bank it owns.  No component
    makes a :class:`NullFilter`, one is the bank's filter by itself, and
    more are OR-ed in a :class:`CompositeFilter`.
    """
    granule_bits = ADDRESS_BITS - log2_exact(granule)
    rmnms: Dict[Optional[int], RMNMCache] = {}
    if design.rmnm_geometry is not None and not design.perfect:
        blocks, assoc = design.rmnm_geometry
        owned = Counter(owner for _tier, _cache, owner in slots)
        rmnms = {owner: RMNMCache(blocks, assoc, num_lanes=lanes)
                 for owner, lanes in owned.items()}
    next_lane = dict.fromkeys(rmnms, 0)
    banks: List[Bank] = []
    for tier, cache, owner in slots:
        if design.perfect:
            components: List[MissFilter] = [PerfectFilter()]
        else:
            context = FilterBuildContext(
                level=tier, cache_name=cache.config.name,
                granule_bits=granule_bits,
            )
            components = [factory(context)
                          for factory in design.factories_for(tier)]
            if owner in rmnms:
                components.append(RMNMLane(rmnms[owner], next_lane[owner]))
                next_lane[owner] += 1
        if not components:
            filter_: MissFilter = NullFilter()
        elif len(components) == 1:
            filter_ = components[0]
        else:
            filter_ = CompositeFilter(components)
        banks.append(Bank(tier, cache, owner, filter_,
                          BlockMapper(granule, cache.config.block_size),
                          FilterStats()))
    return banks, rmnms


def bank_storage_bits(banks: Iterable[Bank],
                      rmnms: Iterable[RMNMCache]) -> int:
    """Total filter state of a bank set: each RMNM cache once, and every
    bank's other components (an RMNM lane is a view of its cache)."""
    total = sum(rmnm.storage_bits for rmnm in rmnms)
    for bank in banks:
        total += sum(component.storage_bits
                     for component in components_of(bank.filter)
                     if not isinstance(component, RMNMLane))
    return total


class MostlyNoMachine:
    """MNM instance bound to one hierarchy."""

    def __init__(self, hierarchy: CacheHierarchy, design: MNMDesign) -> None:
        self.hierarchy = hierarchy
        self.design = design
        self.granule = hierarchy.config.mnm_granule
        self._granule_shift = log2_exact(self.granule)

        banks, rmnms = build_banks(
            design,
            [(tier, cache, None) for tier, cache in hierarchy.all_caches()
             if tier >= 2],
            self.granule,
        )
        self.rmnm: Optional[RMNMCache] = rmnms.get(None)
        self._tracked: Dict[str, Bank] = {}
        for bank in banks:
            self._tracked[bank.cache.config.name] = bank
            bank.cache.add_place_listener(self._make_listener(bank, place=True))
            bank.cache.add_replace_listener(
                self._make_listener(bank, place=False))

        # Telemetry: counters are resolved once here so query() pays a
        # single None-check when telemetry is disabled (the default).
        registry = get_registry()
        self._query_counters: Optional[Tuple] = None
        if registry.enabled:
            self._query_counters = (
                registry.counter("mnm.queries"),
                registry.counter("mnm.miss_answers"),
            )

        # Precomputed query route: per access kind, the (bit index, tracked
        # cache) pairs for tiers 2..N — query() is the hottest path in the
        # experiment runner.
        self._route: Dict[AccessKind, Tuple[Tuple[int, Bank], ...]] = {}
        for kind in AccessKind:
            route: List[Tuple[int, Bank]] = []
            for tier in range(2, hierarchy.num_tiers + 1):
                cache = hierarchy.cache_for(tier, kind)
                route.append((tier - 1, self._tracked[cache.config.name]))
            self._route[kind] = tuple(route)

    @staticmethod
    def _make_listener(
        bank: Bank, place: bool
    ) -> Callable[[Cache, int], None]:
        mapper = bank.mapper
        target = bank.filter.on_place if place else bank.filter.on_replace

        def listener(_cache: Cache, cache_block: int) -> None:
            for granule_addr in mapper.to_granules(cache_block):
                target(granule_addr)

        return listener

    # ---------------------------------------------------------------- query

    def granule_of(self, address: int) -> int:
        """MNM granule block address of a byte address."""
        return address >> self._granule_shift

    def query(self, address: int, kind: AccessKind) -> MissBits:
        """Miss-bit vector for an access *about to be performed*.

        ``bits[tier - 1]`` is True iff the MNM proves tier ``tier`` will
        miss.  Bit 0 (level 1) is always False.  Must be called before
        :meth:`~repro.cache.hierarchy.CacheHierarchy.access` for the same
        reference, since the access updates the state the filters mirror.
        """
        granule_addr = address >> self._granule_shift
        bits = [False] * self.hierarchy.num_tiers
        for bit_index, entry in self._route[kind]:
            stats = entry.stats
            stats.lookups += 1
            if entry.filter.is_definite_miss(granule_addr):
                stats.miss_answers += 1
                bits[bit_index] = True
        counters = self._query_counters
        if counters is not None:
            counters[0].inc()
            if True in bits:
                counters[1].inc()
        return tuple(bits)

    def query_many(self, addresses, kinds):
        """Batched :meth:`query` over aligned address/kind sequences.

        Returns an ``(n, num_tiers)`` boolean matrix (row *i* is exactly
        ``query(addresses[i], kinds[i])``).  Updates per-filter
        :class:`~repro.core.base.FilterStats` and the ``mnm.*`` telemetry
        counters to the same totals as the equivalent sequence of scalar
        queries.  Like :meth:`query`, must be called before the matching
        hierarchy accesses mutate the filters' state.
        """
        addrs = _np.asarray(addresses, dtype=_np.int64)
        n = addrs.shape[0]
        granules = addrs >> self._granule_shift
        bits = _np.zeros((n, self.hierarchy.num_tiers), dtype=bool)
        kind_list = list(kinds)
        present = set(kind_list)
        # Group route entries by identity: unified tiers serve every kind
        # and are queried once over the whole batch; split tiers are
        # queried over the rows of the kinds they serve.
        groups: Dict[int, Tuple[int, Bank, List[AccessKind]]] = {}
        for kind in present:
            for bit_index, entry in self._route[kind]:
                group = groups.get(id(entry))
                if group is None:
                    groups[id(entry)] = (bit_index, entry, [kind])
                else:
                    group[2].append(kind)
        codes = None
        if any(len(serving) != len(present) for _, _, serving in groups.values()):
            code_of = {kind: code for code, kind in enumerate(AccessKind)}
            codes = _np.fromiter((code_of[kind] for kind in kind_list),
                                 dtype=_np.int8, count=n)
        for bit_index, entry, serving in groups.values():
            if len(serving) == len(present):
                rows = None
                subset = granules
                count = n
            else:
                mask = _np.zeros(n, dtype=bool)
                for kind in serving:
                    mask |= codes == code_of[kind]
                rows = _np.flatnonzero(mask)
                subset = granules[rows]
                count = rows.shape[0]
            answers = _np.asarray(entry.filter.query_many(subset), dtype=bool)
            stats = entry.stats
            stats.lookups += count
            stats.miss_answers += int(answers.sum())
            if rows is None:
                bits[:, bit_index] = answers
            else:
                bits[rows, bit_index] = answers
        counters = self._query_counters
        if counters is not None:
            counters[0].inc(n)
            counters[1].inc(int(bits.any(axis=1).sum()))
        return bits

    # ------------------------------------------------------------ inspection

    def filter_for(self, cache_name: str) -> MissFilter:
        """The filter watching the named cache (raises for level-1 caches)."""
        return self._tracked[cache_name].filter

    def stats_for(self, cache_name: str) -> FilterStats:
        """Lookup counters of the named cache's filter."""
        return self._tracked[cache_name].stats

    def tracked_cache_names(self) -> Tuple[str, ...]:
        """Names of the caches this machine filters (tiers 2+)."""
        return tuple(self._tracked)

    def banks(self) -> Tuple[Bank, ...]:
        """One shared bank per tracked cache, closest tier first."""
        return tuple(self._tracked.values())

    @property
    def storage_bits(self) -> int:
        """Total filter state, counting the shared RMNM cache exactly once."""
        rmnms = () if self.rmnm is None else (self.rmnm,)
        return bank_storage_bits(self._tracked.values(), rmnms)

    @property
    def placement(self) -> Placement:
        """The design's MNM position (Figure 1)."""
        return self.design.placement

    @property
    def delay(self) -> int:
        """MNM lookup delay in cycles."""
        return self.design.delay

    @property
    def name(self) -> str:
        """The design's configuration name."""
        return self.design.name

    def on_invalidate(self, granule_addr: int) -> None:
        """Route one cross-context invalidation hint to every tracked filter.

        The multi-core layer calls this when an event on a tracked cache
        was caused by *another* context (a competitive fill or a back-
        invalidation) and this machine therefore cannot process it as a
        first-class place/replace.  Every filter applies its conservative
        downgrade (:meth:`~repro.core.base.MissFilter.on_invalidate`), so
        any standing miss proof for the granule is withdrawn — the
        soundness contract survives sharing at the cost of coverage.
        """
        for entry in self._tracked.values():
            entry.filter.on_invalidate(granule_addr)
        counters = self._query_counters
        if counters is not None:
            get_registry().counter("mnm.invalidations").inc()

    def flush(self) -> None:
        """Reset every filter (mirrors a cache flush; see Section 3.3)."""
        for entry in self._tracked.values():
            entry.filter.on_flush()
        if self.rmnm is not None:
            self.rmnm.flush()

    def __repr__(self) -> str:
        return (
            f"MostlyNoMachine({self.design.name!r}, "
            f"placement={self.design.placement.value})"
        )
