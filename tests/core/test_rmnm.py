"""Tests for the Replacements MNM."""

import pytest

from repro.core.rmnm import RMNMCache, RMNMLane


class TestRMNMCache:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            RMNMCache(100, 1, 1)  # not a power of two
        with pytest.raises(ValueError):
            RMNMCache(128, 3, 1)  # assoc does not divide blocks
        with pytest.raises(ValueError):
            RMNMCache(128, 1, 0)  # no lanes

    def test_name_matches_paper_convention(self):
        assert RMNMCache(512, 2, 5).name == "RMNM_512_2"

    def test_replace_then_place_clears(self):
        rmnm = RMNMCache(128, 1, 2)
        rmnm.record_replace(10, lane=0)
        assert rmnm.is_replaced(10, 0)
        assert not rmnm.is_replaced(10, 1)  # other lane untouched
        rmnm.record_place(10, lane=0)
        assert not rmnm.is_replaced(10, 0)

    def test_place_without_entry_is_noop(self):
        rmnm = RMNMCache(128, 1, 1)
        rmnm.record_place(10, 0)  # no entry exists
        assert not rmnm.is_replaced(10, 0)
        assert rmnm.occupancy == 0

    def test_lanes_share_one_entry(self):
        rmnm = RMNMCache(128, 1, 3)
        rmnm.record_replace(5, 0)
        rmnm.record_replace(5, 2)
        assert rmnm.occupancy == 1
        assert rmnm.is_replaced(5, 0)
        assert not rmnm.is_replaced(5, 1)
        assert rmnm.is_replaced(5, 2)

    def test_conflict_eviction_drops_information(self):
        rmnm = RMNMCache(4, 1, 1)  # 4 sets, direct-mapped
        rmnm.record_replace(0, 0)
        rmnm.record_replace(4, 0)  # same set -> evicts entry for 0
        assert not rmnm.is_replaced(0, 0)   # coverage lost, soundness kept
        assert rmnm.is_replaced(4, 0)

    def test_associativity_retains_conflicting_entries(self):
        rmnm = RMNMCache(8, 2, 1)  # 4 sets, 2-way
        rmnm.record_replace(0, 0)
        rmnm.record_replace(4, 0)
        assert rmnm.is_replaced(0, 0)
        assert rmnm.is_replaced(4, 0)

    def test_replacing_a_resident_granule_makes_it_most_recent(self):
        rmnm = RMNMCache(2, 2, 2)  # one set, 2-way
        rmnm.record_replace(0, 0)
        rmnm.record_replace(1, 0)
        rmnm.record_replace(0, 1)  # 0 becomes the most recent
        rmnm.record_replace(2, 0)  # evicts 1, the least recent
        assert rmnm.replaced_bits_of(0) == 0b11
        assert not rmnm.is_replaced(1, 0)
        assert rmnm.is_replaced(2, 0)

    def test_placement_leaves_the_lru_order(self):
        rmnm = RMNMCache(2, 2, 1)
        rmnm.record_replace(0, 0)
        rmnm.record_replace(1, 0)
        rmnm.record_place(0, 0)  # clears 0's bit, keeps it least recent
        rmnm.record_replace(2, 0)  # evicts 0
        assert rmnm.occupancy == 2
        assert rmnm.is_replaced(1, 0)
        assert rmnm.is_replaced(2, 0)
        rmnm.record_replace(3, 0)  # then 1
        assert not rmnm.is_replaced(1, 0)

    def test_lookups_leave_the_lru_order(self):
        rmnm = RMNMCache(2, 2, 1)
        rmnm.record_replace(0, 0)
        rmnm.record_replace(1, 0)
        assert rmnm.is_replaced(0, 0)
        assert rmnm.replaced_bits_of(0) == 1
        assert rmnm.replaced_bits_many([0, 0]).tolist() == [1, 1]
        rmnm.record_replace(2, 0)  # still evicts 0
        assert not rmnm.is_replaced(0, 0)
        assert rmnm.is_replaced(1, 0)

    def test_flush_lane_only_clears_that_lane(self):
        rmnm = RMNMCache(128, 1, 2)
        rmnm.record_replace(7, 0)
        rmnm.record_replace(7, 1)
        rmnm.flush_lane(0)
        assert not rmnm.is_replaced(7, 0)
        assert rmnm.is_replaced(7, 1)

    def test_flush_clears_everything(self):
        rmnm = RMNMCache(128, 2, 2)
        rmnm.record_replace(7, 0)
        rmnm.flush()
        assert rmnm.occupancy == 0
        assert not rmnm.is_replaced(7, 0)

    def test_storage_bits_scale_with_entries(self):
        small = RMNMCache(128, 1, 5)
        large = RMNMCache(4096, 8, 5)
        assert large.storage_bits > small.storage_bits


class TestRMNMLane:
    def test_lane_bounds(self):
        rmnm = RMNMCache(128, 1, 2)
        with pytest.raises(ValueError):
            RMNMLane(rmnm, 2)

    def test_lane_implements_filter_protocol(self):
        rmnm = RMNMCache(128, 1, 2)
        lane = RMNMLane(rmnm, 1)
        assert not lane.is_definite_miss(3)   # never seen: maybe
        lane.on_place(3)
        assert not lane.is_definite_miss(3)
        lane.on_replace(3)
        assert lane.is_definite_miss(3)
        lane.on_place(3)
        assert not lane.is_definite_miss(3)

    def test_cold_misses_invisible(self):
        """Section 3.1: cold misses cannot be captured by the RMNM."""
        lane = RMNMLane(RMNMCache(128, 1, 1), 0)
        assert not lane.is_definite_miss(999)

    def test_on_flush_clears_own_lane(self):
        rmnm = RMNMCache(128, 1, 2)
        lane0 = RMNMLane(rmnm, 0)
        lane1 = RMNMLane(rmnm, 1)
        lane0.on_replace(3)
        lane1.on_replace(3)
        lane0.on_flush()
        assert not lane0.is_definite_miss(3)
        assert lane1.is_definite_miss(3)

    def test_name_and_technique(self):
        lane = RMNMLane(RMNMCache(512, 2, 4), 2)
        assert lane.technique == "rmnm"
        assert "RMNM_512_2" in lane.name
