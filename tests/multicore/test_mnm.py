"""Tests for MulticoreMNM bank topologies and invalidation routing."""

import random

import pytest

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.presets import (
    paper_hierarchy_2level,
    paper_hierarchy_3level,
    paper_hierarchy_5level,
    paper_hierarchy_7level,
)
from repro.core.hybrid import components_of
from repro.core.machine import MostlyNoMachine
from repro.core.presets import (
    all_paper_design_names,
    hmnm_design,
    parse_design,
    perfect_design,
    tmnm_design,
)
from repro.core.rmnm import RMNMLane
from repro.multicore.config import MulticoreConfig
from repro.multicore.hierarchy import MulticoreHierarchy
from repro.multicore.mnm import MulticoreMNM, multicore_storage_bits
from repro.power.budget import design_storage_bits
from tests.conftest import random_references, small_hierarchy_config


def make(sharing, cores=2, policy="inclusive", design=None):
    mc = MulticoreConfig(cores=cores, mnm_sharing=sharing, l2_policy=policy)
    hierarchy = MulticoreHierarchy(small_hierarchy_config(3), mc)
    mnm = MulticoreMNM(hierarchy, design or tmnm_design(10, 1), sharing)
    return hierarchy, mnm


class TestTopologies:
    def test_private_replicates_banks_per_core(self):
        _, mnm = make("private", cores=3)
        tier2 = [bank for bank in mnm.banks() if bank.tier == 2]
        assert sorted(bank.core for bank in tier2) == [0, 1, 2]

    def test_shared_keeps_one_bank_per_cache(self):
        _, mnm = make("shared", cores=3)
        assert all(bank.core is None for bank in mnm.banks())

    def test_hybrid_splits_by_tier(self):
        _, mnm = make("hybrid", cores=2)
        tiers = {bank.tier: bank.core for bank in mnm.banks()}
        tier2 = [bank for bank in mnm.banks() if bank.tier == 2]
        tier3 = [bank for bank in mnm.banks() if bank.tier == 3]
        assert all(bank.core is not None for bank in tier2)
        assert all(bank.core is None for bank in tier3)
        del tiers

    def test_private_storage_is_core_multiplied(self):
        """For a replication-free filter family, private banks cost exactly
        cores x the shared footprint — the hardware side of the trade."""
        config = small_hierarchy_config(3)
        design = tmnm_design(10, 1)
        shared = multicore_storage_bits(
            config, design, MulticoreConfig(cores=4, mnm_sharing="shared"))
        private = multicore_storage_bits(
            config, design, MulticoreConfig(cores=4, mnm_sharing="private"))
        assert private == 4 * shared

    def test_hybrid_storage_between_extremes(self):
        config = small_hierarchy_config(3)
        design = hmnm_design(2)
        bits = {
            sharing: multicore_storage_bits(
                config, design,
                MulticoreConfig(cores=4, mnm_sharing=sharing))
            for sharing in ("private", "shared", "hybrid")
        }
        assert bits["shared"] <= bits["hybrid"] <= bits["private"]


    def test_unknown_sharing_raises(self):
        """A ValueError naming the sharing, not an assert (also under
        ``python -O``), whatever the hierarchy was built for."""
        mc = MulticoreConfig(cores=2, mnm_sharing="shared")
        hierarchy = MulticoreHierarchy(small_hierarchy_config(3), mc)
        with pytest.raises(ValueError, match="unknown mnm_sharing 'bogus'"):
            MulticoreMNM(hierarchy, tmnm_design(10, 1), "bogus")


def bank_layout(banks):
    """Each bank's tier, cache, filter name and RMNM lane (None: no lane)."""
    layout = []
    for bank in banks:
        lanes = [component.lane for component in components_of(bank.filter)
                 if isinstance(component, RMNMLane)]
        layout.append((bank.tier, bank.cache.config.name, bank.filter.name,
                       lanes[0] if lanes else None))
    return layout


@pytest.mark.parametrize("preset", [
    paper_hierarchy_2level, paper_hierarchy_3level, paper_hierarchy_5level,
    paper_hierarchy_7level,
], ids=lambda preset: preset.__name__)
def test_one_shared_core_builds_the_single_core_machine(preset):
    """Both machines build through one bank builder: on one core, the
    ``shared`` topology is the single-core machine, bank for bank, for
    every paper design."""
    config = preset()
    mc = MulticoreConfig(cores=1, mnm_sharing="shared")
    for name in all_paper_design_names():
        design = parse_design(name)
        machine = MostlyNoMachine(CacheHierarchy(config), design)
        mnm = MulticoreMNM(MulticoreHierarchy(config, mc), design, "shared")
        assert bank_layout(mnm.banks()) == bank_layout(machine.banks()), name
        assert all(bank.core is None for bank in mnm.banks()), name
        assert mnm.storage_bits == machine.storage_bits, name
        assert (multicore_storage_bits(config, design, mc)
                == design_storage_bits(config, design)), name


class TestInvalidationRouting:
    def test_private_banks_see_cross_core_traffic(self):
        hierarchy, mnm = make("private", cores=2)
        rng = random.Random(3)
        for address, kind in random_references(rng, 2000, span=1 << 13):
            core = rng.randrange(2)
            mnm.query(core, address, kind)
            hierarchy.access(core, address, kind)
        assert mnm.cross_core_invalidations > 0

    def test_shared_bank_never_sees_foreign_events(self):
        hierarchy, mnm = make("shared", cores=2)
        rng = random.Random(3)
        for address, kind in random_references(rng, 2000, span=1 << 13):
            core = rng.randrange(2)
            mnm.query(core, address, kind)
            hierarchy.access(core, address, kind)
        assert mnm.cross_core_invalidations == 0

    def test_downgrade_never_creates_a_proof(self):
        """After on_invalidate(g) no filter family may claim a definite
        miss for g — invalidation only ever *removes* proofs."""
        designs = [tmnm_design(8, 1), parse_design("SMNM_10x1"),
                   parse_design("CMNM_2_8"), hmnm_design(2),
                   perfect_design()]
        for design in designs:
            _, mnm = make("private", cores=2, design=design)
            for bank in mnm.banks():
                for granule in (0, 5, 127):
                    bank.filter.on_invalidate(granule)
                    assert not bank.filter.is_definite_miss(granule), (
                        design.name, bank.cache.config.name, granule)


class TestMachineInvalidationSurface:
    def test_machine_on_invalidate_downgrades_every_filter(self):
        hierarchy = CacheHierarchy(small_hierarchy_config(3))
        machine = MostlyNoMachine(hierarchy, tmnm_design(10, 1))
        granule = 0x40
        for name in machine.tracked_cache_names():
            assert machine.filter_for(name).is_definite_miss(granule)
        machine.on_invalidate(granule)
        for name in machine.tracked_cache_names():
            assert not machine.filter_for(name).is_definite_miss(granule)

    def test_machine_stays_sound_after_invalidations(self):
        """Spraying invalidation hints can only lose coverage, never
        produce a false miss."""
        rng = random.Random(17)
        hierarchy = CacheHierarchy(small_hierarchy_config(3))
        machine = MostlyNoMachine(hierarchy, hmnm_design(2))
        for address, kind in random_references(rng, 3000, span=1 << 14):
            if rng.random() < 0.1:
                machine.on_invalidate(rng.randrange(1 << 9))
            bits = machine.query(address, kind)
            outcome = hierarchy.access(address, kind)
            supplier = outcome.supplier
            if supplier is not None and supplier >= 2:
                assert not bits[supplier - 1]
