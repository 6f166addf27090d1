"""Ablation: way prediction vs the MNM — hits vs misses.

The paper positions the MNM against way prediction (Section 5): way
prediction saves data-array reads on *hits*, the MNM saves whole lookups
on *misses*.  This check runs both on the dl2 access stream of one
workload and shows the split — and that the savings compose, since they
trigger on disjoint accesses.
"""

from repro.cache.cache import AccessKind
from repro.cache.presets import paper_hierarchy_5level
from repro.core.presets import perfect_design
from repro.core.waypred import WayPredictionMeter
from repro.simulate import build_memory
from repro.workloads import get_trace
from tests.paper.conftest import PAPER_SETTINGS

WORKLOAD = "twolf"


def _run():
    trace = get_trace(WORKLOAD, PAPER_SETTINGS.num_instructions,
                      PAPER_SETTINGS.seed)
    hierarchy_config = paper_hierarchy_5level()

    # 1. collect the dl2 access stream (dl1 misses) from a baseline run
    memory = build_memory(hierarchy_config, None)
    dl1 = memory.hierarchy.find_cache("dl1")
    dl2_stream = []
    for inst in trace.instructions:
        if not inst.op.is_memory:
            continue
        hits_before = dl1.stats.hits
        probes_before = dl1.stats.probes
        memory.access(inst.addr, AccessKind.LOAD)
        if dl1.stats.probes > probes_before and dl1.stats.hits == hits_before:
            dl2_stream.append(inst.addr)

    # 2. way prediction on the dl2 stream
    dl2_config = hierarchy_config.tiers[1].data
    meter = WayPredictionMeter(dl2_config)
    for address in dl2_stream:
        meter.access(address)

    # 3. MNM (perfect bound) on the same hierarchy: fraction of dl2 probes
    #    it removes entirely
    oracle = build_memory(hierarchy_config, perfect_design())
    bypassed = probed = 0
    for inst in trace.instructions:
        if not inst.op.is_memory:
            continue
        bits = oracle.mnm.query(inst.addr, AccessKind.LOAD)
        outcome = oracle.hierarchy.access(inst.addr, AccessKind.LOAD)
        if outcome.tiers_missed >= 1:
            probed += 1
            if bits[1]:
                bypassed += 1
    return {
        "waypred_accuracy": meter.stats.accuracy,
        "waypred_energy_ratio": meter.stats.read_energy_ratio,
        "dl2_hit_rate": meter.stats.hits / max(meter.stats.probes, 1),
        "mnm_bypass_fraction": bypassed / max(probed, 1),
    }


def test_ablation_waypred_vs_mnm():
    numbers = _run()
    print(f"\n== ablation: way prediction vs MNM on dl2 ({WORKLOAD}) ==")
    print(f"  way-pred accuracy on hits:   {numbers['waypred_accuracy'] * 100:5.1f}%")
    print(f"  way-pred data-read energy:   {numbers['waypred_energy_ratio'] * 100:5.1f}% of baseline")
    print(f"  MNM (oracle) dl2 bypasses:   {numbers['mnm_bypass_fraction'] * 100:5.1f}% of dl2 probes")
    # way prediction only helps when there are hits to predict
    assert 0.0 <= numbers["waypred_accuracy"] <= 1.0
    assert numbers["waypred_energy_ratio"] <= 1.0
    # the MNM removes a substantial share of dl2 probes on top
    assert numbers["mnm_bypass_fraction"] > 0.1
