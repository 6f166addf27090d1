"""MNM filter banks over a shared hierarchy: private, shared, or hybrid.

The single-core :class:`~repro.core.machine.MostlyNoMachine` assumes the
filter sees *every* event on the cache it watches.  With N cores over
shared tiers that assumption splits into three buildable topologies:

* ``shared`` — one filter bank per shared cache, observing the merged
  event stream of all cores.  Sound for the same reason the single-core
  machine is: the bank's view of the cache is complete.
* ``private`` — one bank per (core, shared cache).  A bank sees its own
  core's places/replaces as first-class events; every *other* core's
  event reaches it only as an :meth:`~repro.core.base.MissFilter.
  on_invalidate` hint, which conservatively withdraws any standing miss
  proof for the granule.  This models per-core MNM hardware that cannot
  snoop the full shared-cache port traffic.
* ``hybrid`` — private banks for tier 2 (the hot, per-core-latency
  level), one shared bank for tiers 3+.

Soundness argument for the private downgrade (checked dynamically by
``tests/multicore/test_false_miss.py``): ``on_invalidate`` defaults to
``on_place``, so a private bank's state equals that of a filter fed the
true stream with every foreign event rewritten to a placement.  For every
technique that rewrite can only move state toward "maybe present" —
counters never undershoot the true resident count, flip-flops only get
set, RMNM absence proofs are dropped — so a definite-miss answer still
implies true absence.  The cost is coverage, which is exactly the
private-vs-shared trade the contention figures measure.

A topology is only a choice of bank slots, one per (shared cache, owner
core or shared).  The banks and their RMNM caches, one per owner domain,
come from the single-core machine's builder,
:func:`repro.core.machine.build_banks`, so a one-core ``shared`` machine
holds exactly a :class:`~repro.core.machine.MostlyNoMachine`'s banks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.addresses import log2_exact
from repro.cache.cache import AccessKind, Cache
from repro.core.machine import (
    Bank,
    MissBits,
    MNMDesign,
    bank_storage_bits,
    build_banks,
)
from repro.multicore.config import SHARINGS
from repro.multicore.hierarchy import MulticoreHierarchy


class MulticoreMNM:
    """Filter banks for one design over one :class:`MulticoreHierarchy`."""

    def __init__(
        self,
        hierarchy: MulticoreHierarchy,
        design: MNMDesign,
        sharing: str,
    ) -> None:
        if sharing not in SHARINGS:
            raise ValueError(
                f"unknown mnm_sharing {sharing!r} (expected one of {SHARINGS})"
            )
        self.hierarchy = hierarchy
        self.design = design
        self.sharing = sharing
        self.granule = hierarchy.config.mnm_granule
        self._granule_shift = log2_exact(self.granule)
        #: Granule-level downgrade hints delivered to private banks by
        #: other cores' traffic (a measure of contention pressure on the
        #: filters; always 0 for the fully shared topology).
        self.cross_core_invalidations = 0

        # One slot per (shared cache, owner); owner None = shared domain.
        # Each owner domain gets its own RMNM cache, with one lane per bank
        # it owns (the single-core machine's rule, applied per domain).
        self._banks, self._rmnms = build_banks(design, [
            (tier, cache, owner)
            for tier, cache in hierarchy.shared_caches()
            for owner in (range(hierarchy.cores) if self._private_at(tier)
                          else (None,))
        ], self.granule)

        by_cache: Dict[str, List[Bank]] = {}
        for bank in self._banks:
            by_cache.setdefault(bank.cache.config.name, []).append(bank)
        for banks in by_cache.values():
            cache = banks[0].cache
            cache.add_place_listener(self._make_listener(banks, place=True))
            cache.add_replace_listener(self._make_listener(banks, place=False))

        # Per-(core, kind) query routes: (bit index, bank) pairs for
        # tiers 2..N, resolved once — query() runs per reference.
        by_key = {(bank.cache.config.name, bank.core): bank
                  for bank in self._banks}
        self._route: Dict[Tuple[int, AccessKind], Tuple[Tuple[int, Bank], ...]] = {}
        for core in range(hierarchy.cores):
            for kind in AccessKind:
                route: List[Tuple[int, Bank]] = []
                for tier in range(2, hierarchy.num_tiers + 1):
                    cache = hierarchy.shared_cache_for(tier, kind)
                    owner = core if self._private_at(tier) else None
                    route.append((tier - 1, by_key[(cache.config.name, owner)]))
                self._route[(core, kind)] = tuple(route)

    def _private_at(self, tier: int) -> bool:
        """Does ``tier`` get per-core banks under this topology?"""
        if self.sharing == "private":
            return True
        if self.sharing == "hybrid":
            return tier == 2
        return False

    def _make_listener(
        self, banks: Sequence[Bank], place: bool
    ) -> Callable[[Cache, int], None]:
        hierarchy = self.hierarchy

        def listener(_cache: Cache, cache_block: int) -> None:
            active = hierarchy.active_core
            for bank in banks:
                if bank.core is None or bank.core == active:
                    target = (
                        bank.filter.on_place if place
                        else bank.filter.on_replace
                    )
                    for granule_addr in bank.mapper.to_granules(cache_block):
                        target(granule_addr)
                else:
                    invalidate = bank.filter.on_invalidate
                    for granule_addr in bank.mapper.to_granules(cache_block):
                        invalidate(granule_addr)
                        self.cross_core_invalidations += 1

        return listener

    # ---------------------------------------------------------------- query

    def query(self, core: int, address: int, kind: AccessKind) -> MissBits:
        """Miss-bit vector for an access ``core`` is about to perform.

        Same contract as the single-core machine's query: must run
        *before* the matching :meth:`MulticoreHierarchy.access`, and
        ``bits[tier - 1]`` True is a proof that the shared tier will miss
        — for every topology, under every policy.
        """
        granule_addr = address >> self._granule_shift
        bits = [False] * self.hierarchy.num_tiers
        for bit_index, bank in self._route[(core, kind)]:
            stats = bank.stats
            stats.lookups += 1
            if bank.filter.is_definite_miss(granule_addr):
                stats.miss_answers += 1
                bits[bit_index] = True
        return tuple(bits)

    # ------------------------------------------------------------ inspection

    def banks(self) -> Tuple[Bank, ...]:
        """Every bank, in slot order (tests iterate these to cross-check
        soundness; the kernel replays them)."""
        return tuple(self._banks)

    @property
    def storage_bits(self) -> int:
        """Total filter state: every bank's filters + each RMNM cache once.

        Private topologies replicate state per core; the total reflects
        that — replication is the hardware cost the sharing axis trades
        against coverage.
        """
        return bank_storage_bits(self._banks, self._rmnms.values())

    @property
    def name(self) -> str:
        return self.design.name

    def flush(self) -> None:
        for bank in self._banks:
            bank.filter.on_flush()
        for rmnm in self._rmnms.values():
            rmnm.flush()

    def __repr__(self) -> str:
        return (
            f"MulticoreMNM({self.design.name!r}, sharing={self.sharing!r}, "
            f"banks={len(self._banks)})"
        )


def multicore_storage_bits(hierarchy_config, design, mc) -> int:
    """Filter state of ``design`` instantiated on the ``mc`` topology.

    A pure function of its inputs — it builds the hierarchy and banks,
    reads the total, and discards both; no simulation runs.  The search
    runner uses it to prune over-budget multicore candidates statically,
    the same way :func:`repro.power.budget.design_storage_bits` prunes
    single-core ones (which this equals when ``mc`` is one shared core).
    """
    hierarchy = MulticoreHierarchy(hierarchy_config, mc)
    return MulticoreMNM(hierarchy, design, mc.mnm_sharing).storage_bits
