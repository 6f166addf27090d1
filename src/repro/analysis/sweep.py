"""Design-space sweep utilities: coverage-vs-cost frontiers.

The paper argues by comparing a handful of configurations per technique;
this module generalises that into a reusable sweep: evaluate any set of
MNM designs against one shared simulation pass and extract the Pareto
frontier of (storage bits, coverage).  Used by the design-exploration
example, the design-space search and the extension experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import HierarchyConfig
from repro.core.machine import MNMDesign


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated design."""

    design_name: str
    storage_bits: int
    coverage: float
    violations: int

    @property
    def storage_kb(self) -> float:
        return self.storage_bits / 8 / 1024

    @property
    def coverage_per_kb(self) -> float:
        """Coverage per KB of filter state.

        A zero-storage design with nonzero coverage (the PERFECT oracle)
        is infinitely efficient by this metric, so it returns
        ``float("inf")`` explicitly rather than a misleading 0.0 — any
        storage-efficiency ranking must place free coverage first.  A
        design with no storage *and* no coverage (the NULL baseline)
        stays 0.0.
        """
        kb = self.storage_kb
        if kb:
            return self.coverage / kb
        return float("inf") if self.coverage else 0.0


def sweep_designs(
    references: Iterable[Tuple[int, AccessKind]],
    hierarchy_config: HierarchyConfig,
    designs: Sequence[MNMDesign],
    warmup: int = 0,
    engine: str = "fast",
) -> List[SweepPoint]:
    """Evaluate designs on one shared pass; returns one point per design.

    ``warmup`` and ``engine`` are :func:`repro.simulate.run_reference_pass`'s.
    """
    # imported here: repro.simulate itself imports repro.analysis, so a
    # module-level import would be circular
    from repro.simulate import run_reference_pass

    result = run_reference_pass(
        references, hierarchy_config, designs, warmup=warmup, engine=engine
    )
    points = []
    for design in designs:
        design_result = result.designs[design.name]
        meter = design_result.coverage
        points.append(SweepPoint(
            design_name=design.name,
            storage_bits=design_result.storage_bits,
            coverage=meter.coverage,
            violations=meter.violations,
        ))
    return points


def pareto_frontier(points: Sequence[SweepPoint]) -> List[SweepPoint]:
    """Non-dominated points: no other design is both smaller and better.

    Returned sorted by storage; coverage is strictly increasing along the
    frontier.  Fully deterministic: candidates tied on (storage, coverage)
    are considered in design-name order, so the same point set always
    yields the same frontier members regardless of input order — part of
    the byte-stable report contract the design-space search relies on.
    """
    ordered = sorted(
        points, key=lambda p: (p.storage_bits, -p.coverage, p.design_name))
    frontier: List[SweepPoint] = []
    best = -1.0
    for point in ordered:
        if point.coverage > best:
            frontier.append(point)
            best = point.coverage
    return frontier


def dominated(point: SweepPoint, others: Iterable[SweepPoint]) -> bool:
    """True if some other design is no larger and strictly better (or
    smaller and no worse)."""
    for other in others:
        if other.design_name == point.design_name:
            continue
        no_larger = other.storage_bits <= point.storage_bits
        better = other.coverage > point.coverage
        smaller = other.storage_bits < point.storage_bits
        no_worse = other.coverage >= point.coverage
        if (no_larger and better) or (smaller and no_worse):
            return True
    return False
