"""Tests for the composite (hybrid) and perfect filters."""

import pytest

from repro.core.base import NullFilter
from repro.core.hybrid import CompositeFilter, components_of
from repro.core.perfect import PerfectFilter
from repro.core.tmnm import TMNM


class TestCompositeFilter:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            CompositeFilter([])

    def test_or_combination(self):
        a = TMNM(4, 1)
        b = TMNM(6, 1)
        combo = CompositeFilter([a, b])
        # only a knows about this address via table update
        a.on_place(0x3)
        # combo still flags because b has a zero counter
        assert combo.is_definite_miss(0x3)
        b.on_place(0x3)
        assert not combo.is_definite_miss(0x3)

    def test_events_fan_out(self):
        a = TMNM(4, 1)
        b = TMNM(6, 1)
        combo = CompositeFilter([a, b])
        combo.on_place(0x3)
        assert not a.is_definite_miss(0x3)
        assert not b.is_definite_miss(0x3)
        combo.on_replace(0x3)
        assert a.is_definite_miss(0x3)
        assert b.is_definite_miss(0x3)

    def test_flush_fans_out(self):
        a = TMNM(4, 1)
        combo = CompositeFilter([a, NullFilter()])
        combo.on_place(0x3)
        combo.on_flush()
        assert a.is_definite_miss(0x3)

    def test_storage_bits_sum(self):
        a = TMNM(4, 1)
        b = TMNM(6, 1)
        assert CompositeFilter([a, b]).storage_bits == (
            a.storage_bits + b.storage_bits
        )

    def test_name_joins_or_uses_label(self):
        a = TMNM(4, 1)
        b = TMNM(6, 1)
        assert CompositeFilter([a, b]).name == "TMNM_4x1+TMNM_6x1"
        assert CompositeFilter([a, b], label="HMNMx").name == "HMNMx"

    def test_components_of(self):
        a = TMNM(4, 1)
        b = TMNM(6, 1)
        assert components_of(CompositeFilter([a, b])) == (a, b)
        assert components_of(a) == (a,)


class TestNullFilter:
    def test_never_identifies(self):
        null = NullFilter()
        null.on_place(1)
        null.on_replace(1)
        assert not null.is_definite_miss(1)
        assert null.storage_bits == 0
        assert null.name == "NULL"


class TestPerfectFilter:
    def test_tracks_residency_exactly(self):
        perfect = PerfectFilter()
        assert perfect.is_definite_miss(5)
        perfect.on_place(5)
        assert not perfect.is_definite_miss(5)
        perfect.on_replace(5)
        assert perfect.is_definite_miss(5)

    def test_replace_of_absent_is_noop(self):
        perfect = PerfectFilter()
        perfect.on_replace(5)
        assert perfect.is_definite_miss(5)

    def test_flush(self):
        perfect = PerfectFilter()
        perfect.on_place(5)
        perfect.on_flush()
        assert perfect.is_definite_miss(5)

    def test_resident_set_copy(self):
        perfect = PerfectFilter()
        perfect.on_place(5)
        resident = perfect.resident_granules
        resident.add(6)
        assert perfect.is_definite_miss(6)  # original unaffected

    def test_zero_hardware_budget(self):
        assert PerfectFilter().storage_bits == 0
        assert PerfectFilter().name == "PERFECT"
