"""Attribution: which technique inside a hybrid proves each miss.

The hybrids of Table 3 stack four techniques; the paper reports only their
combined coverage.  This module splits an HMNM's identified misses by the
component(s) that proved them, answering design questions like "does the
RMNM still earn its area inside HMNM4?" — used by the attribution ablation
benchmark and the miss-classification extension experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import CacheHierarchy
from repro.core.hybrid import components_of
from repro.core.machine import MostlyNoMachine


@dataclass
class AttributionTotals:
    """Counts of identified misses per proving technique.

    A miss proven by several components at once credits each of them
    (``shared`` counts those multi-witness identifications separately so
    the exclusive contribution is recoverable).
    """

    identified: int = 0
    by_technique: Dict[str, int] = field(default_factory=dict)
    exclusive_by_technique: Dict[str, int] = field(default_factory=dict)
    shared: int = 0

    def credit(self, techniques: Iterable[str]) -> None:
        names = list(techniques)
        self.identified += 1
        for name in names:
            self.by_technique[name] = self.by_technique.get(name, 0) + 1
        if len(names) == 1:
            only = names[0]
            self.exclusive_by_technique[only] = (
                self.exclusive_by_technique.get(only, 0) + 1
            )
        else:
            self.shared += 1

    def share(self, technique: str) -> float:
        """Fraction of identified misses this technique (co-)proved."""
        if not self.identified:
            return 0.0
        return self.by_technique.get(technique, 0) / self.identified

    def exclusive_share(self, technique: str) -> float:
        """Fraction of identified misses only this technique proved."""
        if not self.identified:
            return 0.0
        return self.exclusive_by_technique.get(technique, 0) / self.identified


class AttributionMeter:
    """Runs a machine over references, attributing identified misses.

    Unlike the plain coverage pass this must re-interrogate the per-level
    filters component by component, so it is meant for focused analyses,
    not the bulk sweeps.
    """

    def __init__(self, machine: MostlyNoMachine) -> None:
        self.machine = machine
        self.totals = AttributionTotals()

    def _components_proving(self, cache_name: str, granule: int):
        return [component.technique
                for component in components_of(
                    self.machine.filter_for(cache_name))
                if component.is_definite_miss(granule)]

    def observe(self, address: int, kind: AccessKind) -> Tuple[bool, ...]:
        """Query + access one reference, crediting identifications.

        Returns the machine's miss bits (so callers can keep using them).
        """
        machine = self.machine
        hierarchy = machine.hierarchy
        granule = machine.granule_of(address)
        bits = machine.query(address, kind)
        # Interrogate components BEFORE the access: the refill will place
        # the block and flip the very answers being attributed.
        witnesses_per_tier = {}
        for tier in range(2, hierarchy.num_tiers + 1):
            if bits[tier - 1]:
                cache = hierarchy.cache_for(tier, kind)
                witnesses_per_tier[tier] = self._components_proving(
                    cache.config.name, granule
                )
        outcome = hierarchy.access(address, kind)
        for tier in range(2, outcome.tiers_missed + 1):
            witnesses = witnesses_per_tier.get(tier)
            if witnesses:
                self.totals.credit(witnesses)
        return bits


def attribute_hybrid(
    hierarchy: CacheHierarchy,
    machine: MostlyNoMachine,
    references: Iterable[Tuple[int, AccessKind]],
    warmup: int = 0,
) -> AttributionTotals:
    """Convenience runner: attribute a machine over a reference stream."""
    if machine.hierarchy is not hierarchy:
        raise ValueError("machine must be attached to the given hierarchy")
    meter = AttributionMeter(machine)
    for index, (address, kind) in enumerate(references):
        if index < warmup:
            hierarchy.access(address, kind)
            continue
        meter.observe(address, kind)
    return meter.totals
