"""Ablation: component attribution inside HMNM4.

Splits HMNM4's identified misses by the technique(s) that proved them —
does every Table 3 component earn its keep?  Expectation from the
component coverages (Figures 10-13): CMNM and TMNM carry most of the
weight, SMNM and RMNM contribute small exclusive slices.
"""

from repro.analysis.attribution import attribute_hybrid
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.presets import paper_hierarchy_5level
from repro.core.machine import MostlyNoMachine
from repro.core.presets import hmnm_design
from repro.workloads import get_trace
from tests.paper.conftest import PAPER_SETTINGS

WORKLOADS = ("gcc", "twolf")


def _run():
    totals_per_workload = {}
    for workload in WORKLOADS:
        trace = get_trace(workload, PAPER_SETTINGS.num_instructions,
                          PAPER_SETTINGS.seed)
        references = list(trace.memory_references())
        hierarchy = CacheHierarchy(paper_hierarchy_5level())
        machine = MostlyNoMachine(hierarchy, hmnm_design(4))
        totals_per_workload[workload] = attribute_hybrid(
            hierarchy, machine, references,
            warmup=int(len(references) * PAPER_SETTINGS.warmup_fraction),
        )
    return totals_per_workload


def test_ablation_hmnm4_attribution():
    results = _run()
    print("\n== ablation: HMNM4 attribution (share of identified misses) ==")
    techniques = ("rmnm", "smnm", "tmnm", "cmnm")
    for workload, totals in results.items():
        parts = "  ".join(
            f"{name}:{totals.share(name) * 100:4.1f}%"
            f"({totals.exclusive_share(name) * 100:4.1f}% excl)"
            for name in techniques
        )
        print(f"  {workload:8} identified={totals.identified:6}  {parts}")

    for workload, totals in results.items():
        assert totals.identified > 0
        # every identification has at least one witness
        witnessed = (sum(totals.exclusive_by_technique.values())
                     + totals.shared)
        assert witnessed == totals.identified
        # the counter-based techniques carry the hybrid
        assert totals.share("tmnm") + totals.share("cmnm") > 0.5
