"""Tests for the MostlyNoMachine coordinator."""

import pytest

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import CacheHierarchy
from repro.core.base import NullFilter, Placement
from repro.core.machine import (
    MNMDesign,
    MostlyNoMachine,
    bank_storage_bits,
    build_banks,
)
from repro.core.perfect import PerfectFilter
from repro.core.presets import (
    hmnm_design,
    null_design,
    parse_design,
    perfect_design,
    rmnm_design,
    tmnm_design,
)
from tests.conftest import small_hierarchy_config


def make_machine(design: MNMDesign, levels: int = 3) -> MostlyNoMachine:
    return MostlyNoMachine(CacheHierarchy(small_hierarchy_config(levels)), design)


class TestConstruction:
    def test_tracks_tiers_two_and_up(self):
        machine = make_machine(perfect_design(), levels=3)
        assert set(machine.tracked_cache_names()) == {"ul2", "ul3"}

    def test_level1_not_filtered(self):
        machine = make_machine(perfect_design())
        with pytest.raises(KeyError):
            machine.filter_for("dl1")

    def test_null_design_builds_null_filters(self):
        machine = make_machine(null_design())
        assert isinstance(machine.filter_for("ul2"), NullFilter)

    def test_perfect_design_builds_oracles(self):
        machine = make_machine(perfect_design())
        assert isinstance(machine.filter_for("ul2"), PerfectFilter)

    def test_rmnm_shared_across_lanes(self):
        machine = make_machine(rmnm_design(128, 2))
        assert machine.rmnm is not None
        assert machine.rmnm.num_lanes == 2  # ul2 and ul3

    def test_granule_is_tier2_block(self):
        machine = make_machine(tmnm_design(8, 1))
        assert machine.granule == 16

    def test_placement_and_delay_from_design(self):
        design = tmnm_design(8, 1).with_placement(Placement.SERIAL)
        machine = make_machine(design)
        assert machine.placement is Placement.SERIAL
        assert machine.delay == 2


class TestQuery:
    def test_bits_length_matches_tiers(self):
        machine = make_machine(perfect_design(), levels=4)
        bits = machine.query(0x1234, AccessKind.LOAD)
        assert len(bits) == 4

    def test_level1_bit_always_false(self):
        machine = make_machine(perfect_design())
        for _ in range(3):
            bits = machine.query(0x40, AccessKind.LOAD)
            assert bits[0] is False
            machine.hierarchy.access(0x40, AccessKind.LOAD)

    def test_perfect_bits_track_residency(self):
        machine = make_machine(perfect_design())
        hierarchy = machine.hierarchy
        bits = machine.query(0x40, AccessKind.LOAD)
        assert bits[1] and bits[2]  # cold: absent everywhere
        hierarchy.access(0x40, AccessKind.LOAD)
        bits = machine.query(0x40, AccessKind.LOAD)
        assert not bits[1] and not bits[2]

    def test_query_counts_stats(self):
        machine = make_machine(perfect_design())
        machine.query(0x40, AccessKind.LOAD)
        stats = machine.stats_for("ul2")
        assert stats.lookups == 1
        assert stats.miss_answers == 1

    def test_granule_fanout_events(self):
        """A fill of a large-block outer cache must register every covered
        granule with the filter (Section 3.1's multiple updates)."""
        machine = make_machine(perfect_design(), levels=3)
        hierarchy = machine.hierarchy
        ul3 = hierarchy.find_cache("ul3")
        granule = machine.granule
        assert ul3.config.block_size == 2 * granule
        hierarchy.access(0x1000, AccessKind.LOAD)
        # the sibling granule inside the same ul3 block is also resident
        sibling = 0x1000 + granule
        bits = machine.query(sibling, AccessKind.LOAD)
        assert not bits[2]  # ul3 holds it
        assert ul3.contains(sibling)


class TestStorageAndFlush:
    def test_storage_counts_rmnm_once(self):
        machine = make_machine(hmnm_design(1))
        rmnm_bits = machine.rmnm.storage_bits
        total = machine.storage_bits
        # subtracting the shared structure leaves the per-level filters
        assert total > rmnm_bits

    def test_flush_resets_filters(self):
        machine = make_machine(perfect_design())
        machine.hierarchy.access(0x40, AccessKind.LOAD)
        machine.flush()
        bits = machine.query(0x40, AccessKind.LOAD)
        assert bits[1] and bits[2]

    def test_repr(self):
        machine = make_machine(perfect_design())
        assert "PERFECT" in repr(machine)


class TestBuildBanks:
    """The one bank builder both machines use, over hand-made slots."""

    def slots(self):
        hierarchy = CacheHierarchy(small_hierarchy_config(3))
        ul2 = hierarchy.cache_for(2, AccessKind.LOAD)
        ul3 = hierarchy.cache_for(3, AccessKind.LOAD)
        return [(2, ul2, 0), (2, ul2, 1), (3, ul3, 0), (3, ul3, None)]

    def test_one_rmnm_per_owner_with_a_lane_per_bank(self):
        banks, rmnms = build_banks(rmnm_design(128, 2), self.slots(), 16)
        assert {owner: rmnm.num_lanes for owner, rmnm in rmnms.items()} == {
            0: 2, 1: 1, None: 1}
        assert [(bank.core, bank.filter.shared, bank.filter.lane)
                for bank in banks] == [
            (0, rmnms[0], 0), (1, rmnms[1], 0), (0, rmnms[0], 1),
            (None, rmnms[None], 0)]
        assert bank_storage_bits(banks, rmnms.values()) == sum(
            rmnm.storage_bits for rmnm in rmnms.values())

    def test_no_slots_no_rmnm(self):
        assert build_banks(rmnm_design(128, 2), [], 16) == ([], {})


class TestDesign:
    def test_with_placement_copies(self):
        design = parse_design("TMNM_10x1")
        serial = design.with_placement(Placement.SERIAL)
        assert serial.placement is Placement.SERIAL
        assert design.placement is Placement.PARALLEL
        assert serial.name == design.name

    def test_factories_for_falls_back_to_default(self):
        design = hmnm_design(2)
        assert design.factories_for(2) == design.factories_for(3)
        assert design.factories_for(4) == design.factories_for(5)
        assert design.factories_for(2) != design.factories_for(4)
