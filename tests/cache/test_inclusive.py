"""Tests for the inclusive-hierarchy option and invalidate_range."""

import random

import pytest

from repro.cache.cache import AccessKind, Cache, CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.core.machine import MostlyNoMachine
from repro.core.presets import hmnm_design, perfect_design
from tests.conftest import random_references, small_hierarchy_config


class TestInvalidateRange:
    def make_cache(self):
        return Cache(CacheConfig(name="c", level=1, size_bytes=512,
                                 associativity=2, block_size=32,
                                 hit_latency=1))

    def test_invalidate_single_block(self):
        cache = self.make_cache()
        cache.fill(0x1000)
        assert cache.invalidate_range(0x1000, 32) == 1
        assert not cache.contains(0x1000)

    def test_invalidate_covers_larger_outer_block(self):
        cache = self.make_cache()
        cache.fill(0x1000)
        cache.fill(0x1020)
        cache.fill(0x1040)
        # a 64B outer block covers the first two 32B inner blocks
        assert cache.invalidate_range(0x1000, 64) == 2
        assert cache.contains(0x1040)

    def test_invalidation_fires_replace_events(self):
        cache = self.make_cache()
        events = []
        cache.add_replace_listener(lambda c, blk: events.append(blk))
        cache.fill(0x1000)
        cache.invalidate_range(0x1000, 32)
        assert events == [cache.block_addr(0x1000)]

    def test_missing_blocks_ignored(self):
        cache = self.make_cache()
        assert cache.invalidate_range(0x1000, 128) == 0

    def test_addresses_validated(self):
        """Both ends of the range must lie in the 32-bit address space."""
        cache = self.make_cache()
        with pytest.raises(ValueError, match="-0x20 outside"):
            cache.invalidate_range(-32, 64)
        with pytest.raises(ValueError, match="0x10000001f outside"):
            cache.invalidate_range((1 << 32) - 32, 64)
        cache.fill(0x1000)
        # A non-positive size still covers the block of its base address.
        assert cache.invalidate_range(0x1010, 0) == 1

    def test_way_reusable_after_invalidation(self):
        cache = self.make_cache()
        cache.fill(0x1000)
        cache.invalidate_range(0x1000, 32)
        cache.fill(0x1000)
        assert cache.contains(0x1000)
        assert cache.occupancy == 1


class TestInclusiveHierarchy:
    def test_outer_eviction_back_invalidates_l1(self):
        hierarchy = CacheHierarchy(small_hierarchy_config(3), inclusive=True)
        hierarchy.access(0x1000, AccessKind.LOAD)
        dl1 = hierarchy.cache_for(1, AccessKind.LOAD)
        ul2 = hierarchy.find_cache("ul2")
        assert dl1.contains(0x1000)
        # evict 0x1000 from ul2 by conflicting fills
        blk = ul2.block_addr(0x1000)
        for k in range(1, ul2.config.associativity + 1):
            ul2.fill((blk + k * ul2.config.num_sets) << ul2.config.offset_bits)
        assert not ul2.contains(0x1000)
        assert not dl1.contains(0x1000)  # back-invalidated
        assert hierarchy.back_invalidations >= 1

    def test_non_inclusive_default_keeps_l1(self):
        hierarchy = CacheHierarchy(small_hierarchy_config(3))
        hierarchy.access(0x1000, AccessKind.LOAD)
        ul2 = hierarchy.find_cache("ul2")
        blk = ul2.block_addr(0x1000)
        for k in range(1, ul2.config.associativity + 1):
            ul2.fill((blk + k * ul2.config.num_sets) << ul2.config.offset_bits)
        assert hierarchy.cache_for(1, AccessKind.LOAD).contains(0x1000)
        assert hierarchy.back_invalidations == 0

    def test_inclusion_invariant_holds_under_load(self):
        """After any access stream, every L1-resident block is also in the
        L2+ caches (the defining inclusive invariant)."""
        rng = random.Random(2)
        hierarchy = CacheHierarchy(small_hierarchy_config(3), inclusive=True)
        for address, kind in random_references(rng, 3000, span=1 << 14):
            hierarchy.access(address, kind)
        ul2 = hierarchy.find_cache("ul2")
        for l1 in hierarchy.caches_at(1):
            for blk in l1.resident_blocks():
                byte_address = blk << l1.config.offset_bits
                assert ul2.contains(byte_address), (
                    f"{l1.config.name} holds {byte_address:#x} but ul2 "
                    "does not — inclusion violated"
                )

    def test_back_invalidation_counts_sum_to_total(self):
        """The per-victim-cache split must account for every drop, and the
        exported ``cache.<name>.back_invalidations`` counters must equal
        the in-object split exactly."""
        from repro.telemetry import MetricsRegistry

        rng = random.Random(5)
        hierarchy = CacheHierarchy(small_hierarchy_config(3), inclusive=True)
        for address, kind in random_references(rng, 4000, span=1 << 14):
            hierarchy.access(address, kind)
        assert hierarchy.back_invalidations >= 1  # stream must exercise it
        assert (sum(hierarchy.back_invalidation_counts.values())
                == hierarchy.back_invalidations)
        registry = MetricsRegistry()
        hierarchy.export_stats(registry)
        counters = registry.snapshot()["counters"]
        for name, dropped in hierarchy.back_invalidation_counts.items():
            assert counters[f"cache.{name}.back_invalidations"] == dropped
        # no phantom counters for caches that never lost a block
        exported = {key for key in counters
                    if key.endswith(".back_invalidations")}
        expected = {f"cache.{name}"
                    f".back_invalidations"
                    for name, dropped in
                    hierarchy.back_invalidation_counts.items() if dropped}
        assert exported == expected

    def test_non_inclusive_exports_no_back_invalidation_counters(self):
        from repro.telemetry import MetricsRegistry

        rng = random.Random(5)
        hierarchy = CacheHierarchy(small_hierarchy_config(3))
        for address, kind in random_references(rng, 2000, span=1 << 14):
            hierarchy.access(address, kind)
        registry = MetricsRegistry()
        hierarchy.export_stats(registry)
        counters = registry.snapshot()["counters"]
        assert not any(key.endswith(".back_invalidations")
                       for key in counters)

    def test_mnm_stays_sound_under_inclusion(self):
        """Back-invalidations are replacements the filters must observe."""
        rng = random.Random(8)
        hierarchy = CacheHierarchy(small_hierarchy_config(3), inclusive=True)
        machine = MostlyNoMachine(hierarchy, hmnm_design(2))
        for address, kind in random_references(rng, 3000, span=1 << 14):
            bits = machine.query(address, kind)
            outcome = hierarchy.access(address, kind)
            supplier = outcome.supplier
            if supplier is not None and supplier >= 2:
                assert not bits[supplier - 1]

    def test_perfect_filter_tracks_inclusive_contents(self):
        rng = random.Random(13)
        hierarchy = CacheHierarchy(small_hierarchy_config(3), inclusive=True)
        machine = MostlyNoMachine(hierarchy, perfect_design())
        for address, kind in random_references(rng, 2000, span=1 << 14):
            machine.query(address, kind)
            hierarchy.access(address, kind)
        # oracle sets must exactly mirror cache contents at the granule level
        from repro.core.perfect import PerfectFilter

        for name in machine.tracked_cache_names():
            cache = hierarchy.find_cache(name)
            filter_ = machine.filter_for(name)
            assert isinstance(filter_, PerfectFilter)
            expected = set()
            fanout = cache.config.block_size // machine.granule
            for blk in cache.resident_blocks():
                first = blk * fanout
                expected.update(range(first, first + fanout))
            assert filter_.resident_granules == expected, name
