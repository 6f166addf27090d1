"""Ablation: replacement policy vs RMNM coverage.

The RMNM records *replacements*, so the hierarchy's replacement policy
literally decides what it gets to learn.  This check runs the same
workload under LRU, FIFO and tree-PLRU hierarchies and reports the
coverage of a large RMNM plus per-policy eviction counts.

Expectation: coverage shifts with policy (the streams differ) while
soundness holds under every policy — the filter never assumes anything
about the victim-selection discipline.
"""

from repro.analysis.coverage import CoverageMeter
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.presets import paper_hierarchy_5level
from repro.core.machine import MostlyNoMachine
from repro.core.presets import rmnm_design
from repro.workloads import get_trace
from tests.cache.test_policy_integration import replace_policy
from tests.paper.conftest import PAPER_SETTINGS

WORKLOAD = "apsi"  # conflict-heavy: the RMNM's best case
POLICIES = ("lru", "fifo", "plru")


def _coverage(policy: str):
    trace = get_trace(WORKLOAD, PAPER_SETTINGS.num_instructions,
                      PAPER_SETTINGS.seed)
    references = list(trace.memory_references())
    warmup = int(len(references) * PAPER_SETTINGS.warmup_fraction)

    config = replace_policy(paper_hierarchy_5level(), policy)
    hierarchy = CacheHierarchy(config)
    machine = MostlyNoMachine(hierarchy, rmnm_design(4096, 8))
    meter = CoverageMeter(hierarchy.num_tiers)
    for index, (address, kind) in enumerate(references):
        if index < warmup:
            hierarchy.access(address, kind)
            continue
        bits = machine.query(address, kind)
        outcome = hierarchy.access(address, kind)
        meter.record(outcome, bits)
    evictions = sum(cache.stats.evictions
                    for _, cache in hierarchy.all_caches())
    return meter, evictions


def test_ablation_replacement_policy():
    results = {policy: _coverage(policy) for policy in POLICIES}
    print(f"\n== ablation: replacement policy vs RMNM ({WORKLOAD}) ==")
    for policy, (meter, evictions) in results.items():
        print(f"  {policy:5} coverage {meter.coverage * 100:5.1f}%  "
              f"evictions {evictions:6}  violations {meter.violations}")

    for policy, (meter, _evictions) in results.items():
        assert meter.violations == 0, f"unsound under {policy}"
        assert meter.candidates > 0
    # the streams genuinely differ across policies
    coverages = {round(meter.coverage, 6)
                 for meter, _ in results.values()}
    eviction_counts = {evictions for _, evictions in results.values()}
    assert len(eviction_counts) > 1 or len(coverages) > 1
