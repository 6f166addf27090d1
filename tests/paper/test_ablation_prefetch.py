"""Ablation: does sequential prefetching erode the MNM's opportunity?

Stream buffers / prefetchers hide exactly the sequential misses that are
easiest for the MNM to prove too.  This check measures, on a streaming
workload (applu) and a pointer workload (mcf), the perfect-MNM
access-time headroom with and without a degree-2 next-line prefetcher.

Expected: prefetching shrinks the headroom on the streaming workload much
more than on the pointer workload (whose misses a sequential prefetcher
cannot anticipate) — i.e. the two mechanisms are complementary on
irregular codes.
"""

from repro.cache.cache import AccessKind
from repro.cache.presets import paper_hierarchy_5level
from repro.core.presets import perfect_design
from repro.simulate import build_memory
from repro.workloads import get_trace
from tests.paper.conftest import PAPER_SETTINGS


def _headroom(workload: str, prefetch_degree: int) -> float:
    """Perfect-MNM share of total access time saved, with/without PF."""
    trace = get_trace(workload, PAPER_SETTINGS.num_instructions,
                      PAPER_SETTINGS.seed)
    references = list(trace.memory_references())
    warmup = int(len(references) * PAPER_SETTINGS.warmup_fraction)

    baseline = build_memory(paper_hierarchy_5level(), None,
                            with_energy=False,
                            prefetch_degree=prefetch_degree)
    oracle = build_memory(paper_hierarchy_5level(), perfect_design(),
                          with_energy=False,
                          prefetch_degree=prefetch_degree)
    base_time = oracle_time = 0
    for index, (address, kind) in enumerate(references):
        b = baseline.access(address, kind)
        o = oracle.access(address, kind)
        if index >= warmup:
            base_time += b
            oracle_time += o
    return (base_time - oracle_time) / base_time if base_time else 0.0


def _run():
    results = {}
    for workload in ("applu", "mcf"):
        results[workload] = {
            "plain": _headroom(workload, 0),
            "prefetch": _headroom(workload, 2),
        }
    return results


def test_ablation_prefetch_interaction():
    results = _run()
    print("\n== ablation: perfect-MNM headroom vs prefetching ==")
    for workload, numbers in results.items():
        print(f"  {workload:8} plain {numbers['plain'] * 100:5.1f}%  "
              f"with prefetch {numbers['prefetch'] * 100:5.1f}%")
    # headroom exists in all configurations
    for numbers in results.values():
        assert numbers["plain"] > 0.0
        assert numbers["prefetch"] > 0.0
    # the pointer workload keeps more of its headroom under prefetching
    applu = results["applu"]
    mcf = results["mcf"]
    applu_kept = applu["prefetch"] / applu["plain"]
    mcf_kept = mcf["prefetch"] / mcf["plain"]
    assert mcf_kept >= applu_kept - 0.15
