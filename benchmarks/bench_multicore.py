"""Benchmark multi-core contention passes across MNM topologies.

Times one cold ``multicore_pass`` per sharing topology (private / shared
/ hybrid banks, 4 cores on the paper's 3-level hierarchy), re-runs the
first topology to assert determinism (identical coverage counts,
invalidation counters and cache stats), and writes per-topology
throughput plus the contention counters to ``BENCH_multicore.json`` in
the ``repro-bench/v1`` envelope.

Standalone (one pass per topology doesn't fit pytest-benchmark's
calibrated repetition model)::

    python benchmarks/bench_multicore.py [--instructions N] [--cores N]
"""

import argparse
import os
import sys
import time

try:
    from benchmarks._schema import bench_envelope, write_bench
except ImportError:  # run as a standalone script from benchmarks/
    from _schema import bench_envelope, write_bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cache.presets import paper_hierarchy_3level  # noqa: E402
from repro.core.presets import parse_design  # noqa: E402
from repro.experiments.base import (  # noqa: E402
    ExperimentSettings,
    clear_pass_cache,
    multicore_pass,
)
from repro.experiments.planning import MULTICORE_DESIGNS  # noqa: E402
from repro.multicore.config import SHARINGS, MulticoreConfig  # noqa: E402

WORKLOADS = ("gcc", "twolf")


def _signature(result):
    """Everything observable, as a comparable value."""
    return (
        result.references,
        result.back_invalidations,
        result.coherence_invalidations,
        result.cache_stats,
        {
            name: (dr.coverage.accesses, dr.coverage.identified,
                   dr.coverage.candidates, dr.coverage.violations,
                   dr.storage_bits, dr.cross_core_invalidations)
            for name, dr in result.designs.items()
        },
    )


def _timed_pass(config, designs, mc, settings):
    """One cold pass (cache cleared first) and its wall-clock seconds."""
    clear_pass_cache()
    started = time.perf_counter()
    result = multicore_pass(WORKLOADS, config, designs, mc, settings)
    return result, time.perf_counter() - started


def main(argv=None):
    """Benchmark every topology, check determinism, write the JSON."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--output", default=os.path.join(
        REPO_ROOT, "BENCH_multicore.json"))
    args = parser.parse_args(argv)

    config = paper_hierarchy_3level()
    designs = tuple(parse_design(name) for name in MULTICORE_DESIGNS)
    settings = ExperimentSettings(num_instructions=args.instructions,
                                  warmup_fraction=0.25,
                                  workloads=WORKLOADS)

    metrics = {}
    results = {}
    for sharing in SHARINGS:
        mc = MulticoreConfig(cores=args.cores, mnm_sharing=sharing)
        result, seconds = _timed_pass(config, designs, mc, settings)
        results[sharing] = result
        xcore = sum(dr.cross_core_invalidations
                    for dr in result.designs.values())
        metrics[sharing] = {
            "seconds": round(seconds, 2),
            "references_per_sec": round(result.references / seconds, 1),
            "back_invalidations": result.back_invalidations,
            "coherence_invalidations": result.coherence_invalidations,
            "cross_core_invalidations": xcore,
        }
        print(f"{sharing:8s} {seconds:6.1f}s  "
              f"{metrics[sharing]['references_per_sec']:9.1f} refs/s  "
              f"xcore_inv={xcore}")

    check_sharing = SHARINGS[0]
    mc = MulticoreConfig(cores=args.cores, mnm_sharing=check_sharing)
    replay, _ = _timed_pass(config, designs, mc, settings)
    assert _signature(replay) == _signature(results[check_sharing]), (
        f"{check_sharing} topology is not deterministic")
    for sharing, result in results.items():
        for name, dr in result.designs.items():
            assert dr.coverage.violations == 0, (sharing, name)
    print("replay byte-identical; all topologies sound (0 violations)")

    document = bench_envelope(
        "bench_multicore",
        metrics=metrics,
        benchmark="multi-core contention pass across MNM topologies",
        cores=args.cores,
        instructions=args.instructions,
        workloads=list(WORKLOADS),
        designs=list(MULTICORE_DESIGNS),
        deterministic=True,
        notes=("each topology is one cold pass on the default engine over "
               f"{args.cores} interleaved streams on the 3-level paper "
               "hierarchy; cross_core_invalidations sums the per-design "
               "foreign-placement downgrades (0 for shared banks by "
               "construction)"),
    )
    write_bench(args.output, document)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
