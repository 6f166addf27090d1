"""Ablation: inclusion policy vs MNM coverage.

The paper's techniques explicitly do not assume inclusion (Section 3).
An inclusive hierarchy changes the event streams the filters observe —
back-invalidations are extra replacements, which the RMNM in particular
feeds on — and shrinks the effective closer-level capacity.  This check
measures HMNM2 and RMNM coverage under both policies.
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.presets import paper_hierarchy_5level
from repro.core.machine import MostlyNoMachine
from repro.core.presets import hmnm_design, rmnm_design
from repro.analysis.coverage import CoverageMeter
from repro.workloads import get_trace
from tests.paper.conftest import PAPER_SETTINGS

WORKLOAD = "twolf"


def _coverage(inclusive: bool):
    trace = get_trace(WORKLOAD, PAPER_SETTINGS.num_instructions,
                      PAPER_SETTINGS.seed)
    references = list(trace.memory_references())
    warmup = int(len(references) * PAPER_SETTINGS.warmup_fraction)

    hierarchy = CacheHierarchy(paper_hierarchy_5level(),
                               inclusive=inclusive)
    designs = {
        "HMNM2": MostlyNoMachine(hierarchy, hmnm_design(2)),
        "RMNM": MostlyNoMachine(hierarchy, rmnm_design(4096, 8)),
    }
    meters = {name: CoverageMeter(hierarchy.num_tiers) for name in designs}
    for index, (address, kind) in enumerate(references):
        if index < warmup:
            hierarchy.access(address, kind)
            continue
        bits = {name: machine.query(address, kind)
                for name, machine in designs.items()}
        outcome = hierarchy.access(address, kind)
        for name, meter in meters.items():
            meter.record(outcome, bits[name])
    return (
        {name: meter.coverage for name, meter in meters.items()},
        {name: meter.violations for name, meter in meters.items()},
        hierarchy.back_invalidations,
    )


def test_ablation_inclusion_policy():
    results = {
        "non-inclusive": _coverage(False),
        "inclusive": _coverage(True),
    }
    print(f"\n== ablation: inclusion policy ({WORKLOAD}) ==")
    for policy, (coverages, violations, back_invals) in results.items():
        parts = "  ".join(f"{name}:{value * 100:5.1f}%"
                          for name, value in coverages.items())
        print(f"  {policy:14} {parts}  back-invalidations={back_invals}")

    for policy, (coverages, violations, back_invals) in results.items():
        for name, count in violations.items():
            assert count == 0, f"{name} unsound under {policy}"
    assert results["inclusive"][2] > 0
    assert results["non-inclusive"][2] == 0
