"""Tests for per-run energy accounting."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import AccessOutcome
from repro.core.base import Placement
from repro.power.energy import EnergyAccountant, EnergyTotals, HierarchyEnergyModel
from tests.conftest import small_hierarchy_config


CONFIG = small_hierarchy_config(3)


def outcome(supplier, kind=AccessKind.LOAD, tiers=3):
    hits = [False] * tiers
    if supplier is not None:
        hits[supplier - 1] = True
    return AccessOutcome(address=0x1000, kind=kind, hits=tuple(hits),
                         supplier=supplier)


class TestBaselineAccounting:
    def test_l1_hit_costs_one_probe(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model)
        accountant.account(outcome(1))
        totals = accountant.totals
        assert totals.cache_probe_nj == pytest.approx(
            model.read_nj(1, AccessKind.LOAD))
        assert totals.miss_probe_nj == 0.0
        assert totals.refill_nj == 0.0

    def test_memory_supply_probes_and_refills_everything(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model)
        accountant.account(outcome(None))
        totals = accountant.totals
        expected_probes = sum(model.read_nj(t, AccessKind.LOAD)
                              for t in (1, 2, 3))
        expected_refills = sum(model.write_nj(t, AccessKind.LOAD)
                               for t in (1, 2, 3))
        assert totals.cache_probe_nj == pytest.approx(expected_probes)
        assert totals.miss_probe_nj == pytest.approx(expected_probes)
        assert totals.refill_nj == pytest.approx(expected_refills)

    def test_mid_hierarchy_supply(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model)
        accountant.account(outcome(3))
        totals = accountant.totals
        miss_part = model.read_nj(1, AccessKind.LOAD) + model.read_nj(
            2, AccessKind.LOAD)
        assert totals.miss_probe_nj == pytest.approx(miss_part)
        assert totals.cache_probe_nj == pytest.approx(
            miss_part + model.read_nj(3, AccessKind.LOAD))

    def test_instruction_side_uses_il1(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model)
        accountant.account(outcome(1, kind=AccessKind.INSTRUCTION))
        assert accountant.totals.cache_probe_nj == pytest.approx(
            model.read_nj(1, AccessKind.INSTRUCTION))

    def test_miss_fraction(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model)
        accountant.account(outcome(1))
        accountant.account(outcome(None))
        fraction = accountant.totals.miss_fraction
        assert 0.0 < fraction < 1.0

    def test_reset(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model)
        accountant.account(outcome(None))
        accountant.reset()
        assert accountant.totals.total_nj == 0.0
        assert accountant.totals.accesses == 0

    def test_reset_clears_grouped_counts(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model, mnm_query_nj=0.5)
        accountant.account_many(outcome(None), (False, True, False), 7)
        assert accountant.totals.accesses == 7
        accountant.reset()
        assert accountant.totals == EnergyTotals()


class TestBypassAccounting:
    def test_bypassed_tier_saves_its_probe(self):
        model = HierarchyEnergyModel(CONFIG)
        plain = EnergyAccountant(model)
        bypassing = EnergyAccountant(model)
        plain.account(outcome(3))
        bypassing.account(outcome(3), bits=(False, True, False))
        saved = plain.totals.cache_probe_nj - bypassing.totals.cache_probe_nj
        assert saved == pytest.approx(model.read_nj(2, AccessKind.LOAD))

    def test_refills_unaffected_by_bypass(self):
        model = HierarchyEnergyModel(CONFIG)
        a = EnergyAccountant(model)
        b = EnergyAccountant(model)
        a.account(outcome(None))
        b.account(outcome(None), bits=(False, True, True))
        assert a.totals.refill_nj == pytest.approx(b.totals.refill_nj)


class TestMNMEnergy:
    def test_parallel_pays_on_every_access(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model, placement=Placement.PARALLEL,
                                      mnm_query_nj=0.5)
        accountant.account(outcome(1), bits=(False, False, False))
        assert accountant.totals.mnm_nj == pytest.approx(0.5)

    def test_serial_pays_only_past_l1(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model, placement=Placement.SERIAL,
                                      mnm_query_nj=0.5)
        accountant.account(outcome(1), bits=(False, False, False))
        assert accountant.totals.mnm_nj == 0.0
        accountant.account(outcome(2), bits=(False, False, False))
        assert accountant.totals.mnm_nj == pytest.approx(0.5)

    def test_update_energy_scales_with_refilled_tiers(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model, placement=Placement.SERIAL,
                                      mnm_query_nj=0.0, mnm_update_nj=0.1)
        accountant.account(outcome(None), bits=(False, False, False))
        # 3 tiers missed -> 2 tracked refills -> 2 places + ~2 replaces
        assert accountant.totals.mnm_nj == pytest.approx(0.4)

    def test_no_mnm_charges_nothing(self):
        model = HierarchyEnergyModel(CONFIG)
        accountant = EnergyAccountant(model)
        accountant.account(outcome(None))
        assert accountant.totals.mnm_nj == 0.0


class TestTotals:
    def test_total_includes_everything(self):
        totals = EnergyTotals(cache_probe_nj=1.0, miss_probe_nj=0.5,
                              refill_nj=2.0, mnm_nj=0.25, accesses=3)
        assert totals.cache_nj == 3.0
        assert totals.total_nj == 3.25

    def test_empty_fractions(self):
        assert EnergyTotals().miss_fraction == 0.0


@st.composite
def accesses(draw):
    """An (outcome, bits) access on the 3-tier test hierarchy: no bits (the
    baseline) or any vector, bits past the tiers missed included."""
    supplier = draw(st.sampled_from([1, 2, 3, None]))
    kind = draw(st.sampled_from(list(AccessKind)))
    bits = draw(st.none() | st.tuples(st.just(False), st.booleans(),
                                      st.booleans()))
    return outcome(supplier, kind=kind), bits


class TestOrderIndependence:
    """The engines' agreement rests on this: the interpreter accounts one
    access at a time in stream order, the fast engine hands over whole
    classes in class-id order, and both must get the same floats."""

    @settings(max_examples=200, deadline=None)
    @given(placement=st.sampled_from(list(Placement)),
           energies=st.tuples(*[st.floats(0.001, 1.0)] * 5),
           stream=st.lists(accesses(), min_size=1, max_size=80),
           data=st.data())
    def test_totals_depend_only_on_the_multiset(self, placement, energies,
                                                stream, data):
        query, update, *levels = energies
        model = HierarchyEnergyModel(CONFIG)

        def fresh():
            return EnergyAccountant(model, placement=placement,
                                    mnm_query_nj=query, mnm_update_nj=update,
                                    mnm_level_query_nj=levels)

        in_order, permuted, grouped = fresh(), fresh(), fresh()
        for access in stream:
            in_order.account(*access)
        for access in data.draw(st.permutations(stream)):
            permuted.account(*access)
        groups = list(Counter(stream).items())
        for (access_outcome, bits), count in data.draw(
                st.permutations(groups)):
            grouped.account_many(access_outcome, bits, count)

        expected = dataclasses.astuple(in_order.totals)
        assert dataclasses.astuple(permuted.totals) == expected
        assert dataclasses.astuple(grouped.totals) == expected
        assert expected[-1] == len(stream)
