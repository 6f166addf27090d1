"""Ablation: MNM placement (parallel / serial / distributed).

Section 2 of the paper describes the placements qualitatively; this check
quantifies the triangle on one design (HMNM2): parallel wins time (its
delay hides under L1), serial and distributed trade delay for energy, and
distributed pays the least MNM energy of all (only reached levels consult
their slice).
"""

from repro.cache.presets import paper_hierarchy_5level
from repro.core.base import Placement
from repro.core.presets import hmnm_design
from repro.simulate import run_reference_pass
from repro.workloads import get_trace
from tests.paper.conftest import PAPER_SETTINGS

WORKLOAD = "gcc"


def _run():
    trace = get_trace(WORKLOAD, PAPER_SETTINGS.num_instructions,
                      PAPER_SETTINGS.seed)
    hierarchy = paper_hierarchy_5level()
    designs = [
        hmnm_design(2).with_placement(placement)
        for placement in (Placement.PARALLEL, Placement.SERIAL,
                          Placement.DISTRIBUTED)
    ]
    # distinct names per placement for the result dict
    references = list(trace.memory_references())
    results = {}
    for design in designs:
        result = run_reference_pass(
            references, hierarchy, [design], WORKLOAD,
            warmup=int(len(references) * PAPER_SETTINGS.warmup_fraction),
        )
        entry = result.designs[design.name]
        results[design.placement.value] = {
            "access_time": entry.access_time,
            "mnm_nj": entry.energy.mnm_nj,
            "total_nj": entry.energy.total_nj,
            "baseline_time": result.baseline_access_time,
        }
    return results


def test_ablation_placement():
    results = _run()
    print(f"\n== ablation: MNM placement (HMNM2, {WORKLOAD}) ==")
    for placement, numbers in results.items():
        print(f"  {placement:12} access-time {numbers['access_time']:9} "
              f"mnm {numbers['mnm_nj']:9.1f} nJ")

    parallel = results["parallel"]
    serial = results["serial"]
    distributed = results["distributed"]
    # time: parallel <= serial <= distributed (delays accumulate)
    assert parallel["access_time"] <= serial["access_time"]
    assert serial["access_time"] <= distributed["access_time"]
    # MNM energy: parallel >= serial >= distributed (consults narrow)
    assert parallel["mnm_nj"] >= serial["mnm_nj"]
    assert serial["mnm_nj"] >= distributed["mnm_nj"] - 1e-6
    # all of them still beat the no-MNM baseline on access time
    assert parallel["access_time"] < parallel["baseline_time"]
