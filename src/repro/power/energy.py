"""Per-run energy accounting for the cache system and the MNM.

The accountant prices the same structural access stream the timing model
prices: probes at every tier walked (minus MNM-bypassed ones), a probe at
the supplying tier, refill writes on the way back, plus the MNM's own
consultation and bookkeeping energy.  It counts accesses per class and
prices each class once, so its totals depend only on the multiset of
accesses: the interpreter, which accounts one access at a time, and the
fast engine, which hands over whole classes, get the same floats.
Running one accountant with ``bits=None`` yields the no-MNM baseline;
Figure 3's metric is that baseline's ``miss_probe_nj / total_cache_nj``
and Figure 16's is the relative saving of a design's total (caches + MNM)
against the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import AccessOutcome, HierarchyConfig, MEMORY_TIER
from repro.core.base import Placement
from repro.power.cacti import cache_read_energy_nj, cache_write_energy_nj


class HierarchyEnergyModel:
    """Precomputed per-tier read/write energies for one hierarchy."""

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self._read: Dict[AccessKind, Tuple[float, ...]] = {}
        self._write: Dict[AccessKind, Tuple[float, ...]] = {}
        for kind in AccessKind:
            reads = []
            writes = []
            for tier in config.tiers:
                if tier.unified is not None:
                    cache_config = tier.unified
                elif kind is AccessKind.INSTRUCTION:
                    cache_config = tier.instruction
                else:
                    cache_config = tier.data
                reads.append(cache_read_energy_nj(cache_config))
                writes.append(cache_write_energy_nj(cache_config))
            self._read[kind] = tuple(reads)
            self._write[kind] = tuple(writes)

    def read_nj(self, tier: int, kind: AccessKind) -> float:
        return self._read[kind][tier - 1]

    def write_nj(self, tier: int, kind: AccessKind) -> float:
        return self._write[kind][tier - 1]


@dataclass
class EnergyTotals:
    """Accumulated energy, nJ."""

    cache_probe_nj: float = 0.0
    miss_probe_nj: float = 0.0
    refill_nj: float = 0.0
    mnm_nj: float = 0.0
    accesses: int = 0

    @property
    def cache_nj(self) -> float:
        """All cache-array energy (probes + refills)."""
        return self.cache_probe_nj + self.refill_nj

    @property
    def total_nj(self) -> float:
        """Cache system plus MNM."""
        return self.cache_nj + self.mnm_nj

    @property
    def miss_fraction(self) -> float:
        """Figure 3's metric: share of cache energy spent on miss probes."""
        cache = self.cache_nj
        return self.miss_probe_nj / cache if cache else 0.0


class EnergyAccountant:
    """Accumulates energy for one design over a reference stream.

    It counts accesses per *class*: (kind, supplier, tiers missed, miss
    bits of the tiers missed).  Every access of a class costs the same, so
    :attr:`totals` prices each class once and weights it by its count.

    Args:
        model: per-tier energies for the hierarchy.
        placement: MNM position; PARALLEL pays the MNM query on every
            reference, SERIAL only on references that miss L1.
        mnm_query_nj: one MNM consultation (0 without an MNM / for the
            perfect MNM).
        mnm_update_nj: one MNM bookkeeping event.
    """

    def __init__(
        self,
        model: HierarchyEnergyModel,
        placement: Placement = Placement.PARALLEL,
        mnm_query_nj: float = 0.0,
        mnm_update_nj: float = 0.0,
        mnm_level_query_nj: Optional[Sequence[float]] = None,
    ) -> None:
        self.model = model
        self.placement = placement
        self.mnm_query_nj = mnm_query_nj
        self.mnm_update_nj = mnm_update_nj
        # per-tier consult energies (index tier-1), used by DISTRIBUTED
        # placement where only the levels a request reaches pay anything
        self.mnm_level_query_nj = (
            tuple(mnm_level_query_nj) if mnm_level_query_nj is not None else None
        )
        # (kind value, supplying tier or 0 for main memory, tiers missed,
        # miss bits of the tiers missed) -> accesses
        self._counts: Dict[Tuple[str, int, int, Tuple[bool, ...]], int] = {}
        self._has_mnm = mnm_query_nj > 0.0 or mnm_update_nj > 0.0

    def reset(self) -> None:
        """Forget every accounted access (warmup boundary)."""
        self._counts = {}

    def account(
        self,
        outcome: AccessOutcome,
        bits: Optional[Sequence[bool]] = None,
    ) -> None:
        """Count one access.

        ``bits`` are the design's definite-miss bits (``None`` = baseline);
        a set bit skips the probe energy of that tier, which is exactly the
        saving the paper's techniques target.
        """
        self.account_many(outcome, bits, 1)

    def account_many(
        self,
        outcome: AccessOutcome,
        bits: Optional[Sequence[bool]],
        count: int,
    ) -> None:
        """Count ``count`` identical accesses: ``count`` :meth:`account` calls.

        The fast engine groups references into equivalence classes and
        hands each class over with one call.
        """
        missed = outcome.tiers_missed
        skipped = (False,) * missed if bits is None else tuple(bits[:missed])
        supplier = outcome.supplier
        key = (outcome.kind.value,
               0 if supplier is MEMORY_TIER else supplier, missed, skipped)
        counts = self._counts
        counts[key] = counts.get(key, 0) + count

    @property
    def totals(self) -> EnergyTotals:
        """The accounted energy: each class's price times its count.

        Classes are summed in sorted key order, so the floats depend only
        on which accesses were counted, never on the order they came in:
        any two callers that count the same classes get the same totals.
        """
        totals = EnergyTotals()
        for key, count in sorted(self._counts.items()):
            probe, miss_probe, refill, mnm = self._price(*key)
            totals.cache_probe_nj += count * probe
            totals.miss_probe_nj += count * miss_probe
            totals.refill_nj += count * refill
            totals.mnm_nj += count * mnm
            totals.accesses += count
        return totals

    def _price(self, kind_value: str, supplier: int, missed: int,
               skipped: Tuple[bool, ...]) -> Tuple[float, float, float, float]:
        """One access's (cache probe, miss probe, refill, MNM) energy, nJ.

        ``supplier`` is the supplying tier, 0 for main memory.
        """
        kind = AccessKind(kind_value)
        model = self.model
        probe = miss_probe = refill = mnm = 0.0
        for tier in range(1, missed + 1):
            if skipped[tier - 1]:
                continue
            read = model.read_nj(tier, kind)
            probe += read
            miss_probe += read
        if supplier:
            probe += model.read_nj(supplier, kind)

        # Refills write the block into every tier that missed, bypassed or
        # not — bypass changes lookups, never contents.
        for tier in range(1, missed + 1):
            refill += model.write_nj(tier, kind)

        if self._has_mnm:
            if self.placement is Placement.PARALLEL:
                mnm += self.mnm_query_nj
            elif self.placement is Placement.SERIAL:
                if missed >= 1:
                    mnm += self.mnm_query_nj
            elif self.placement is Placement.DISTRIBUTED:
                # only the per-level structures of reached levels are read
                levels = self.mnm_level_query_nj
                if levels is not None:
                    for tier in range(2, missed + 1):
                        mnm += levels[tier - 1]
                    if supplier >= 2:
                        mnm += levels[supplier - 1]
                elif missed >= 1:
                    mnm += self.mnm_query_nj
            # One place event per refilled tracked tier (tiers >= 2), plus
            # roughly one replacement per fill once caches are warm.
            tracked_fills = max(missed - 1, 0)
            mnm += 2.0 * tracked_fills * self.mnm_update_nj
        return probe, miss_probe, refill, mnm
