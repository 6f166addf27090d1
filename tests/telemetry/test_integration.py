"""Integration: telemetry wired through the simulation entry points.

The contract pinned here is the acceptance criterion of the telemetry
PR: the registry's per-level bypass counters, the JSONL trace aggregate
and the :class:`~repro.analysis.coverage.CoverageMeter` must all report
the same totals for the same run — and with telemetry disabled (the
default) nothing is recorded anywhere.
"""

import json

from repro import telemetry
from repro.core.presets import parse_design
from repro.simulate import run_core_trace, run_reference_pass
from repro.telemetry import aggregate_trace, trace_counters
from repro.workloads import get_trace

from tests.conftest import random_references, small_hierarchy_config

DESIGN_NAMES = ("PERFECT", "RMNM_128_1")


def run_pass(config, refs, warmup=0):
    designs = [parse_design(name) for name in DESIGN_NAMES]
    return run_reference_pass(refs, config, designs, workload_name="test",
                              warmup=warmup)


class TestReferencePassMetrics:
    def test_bypass_counters_match_coverage_meter(self, rng):
        config = small_hierarchy_config(3)
        refs = random_references(rng, 4000, span=1 << 14)
        registry = telemetry.enable_metrics()
        result = run_pass(config, refs, warmup=1000)
        counters = registry.snapshot()["counters"]

        assert counters["pass.references"] == result.references
        for name in DESIGN_NAMES:
            meter = result.designs[name].coverage
            identified_total = 0
            for tier in range(2, config.num_tiers + 1):
                candidates = counters[f"mnm.{name}.candidates.l{tier}"]
                bypasses = counters[f"mnm.{name}.bypass.l{tier}"]
                assert candidates == meter.tier_candidates(tier)
                assert bypasses == meter._tiers[tier - 1].identified
                identified_total += bypasses
            assert identified_total == meter.identified
        # PERFECT identifies every candidate, so its counters are exercised
        perfect = result.designs["PERFECT"].coverage
        assert perfect.identified == perfect.candidates > 0

    def test_cache_counters_match_pass_stats(self, rng):
        config = small_hierarchy_config(3)
        refs = random_references(rng, 3000)
        registry = telemetry.enable_metrics()
        result = run_pass(config, refs)
        counters = registry.snapshot()["counters"]
        for name, (probes, hits) in result.cache_stats.items():
            assert counters[f"cache.{name}.probes"] == probes
            assert counters[f"cache.{name}.hits"] == hits

    def test_mnm_query_counters(self, rng):
        config = small_hierarchy_config(3)
        refs = random_references(rng, 2000)
        registry = telemetry.enable_metrics()
        result = run_pass(config, refs)
        counters = registry.snapshot()["counters"]
        # two designs, each queried once per measured reference
        assert counters["mnm.queries"] == 2 * result.references

    def test_disabled_mode_records_nothing(self, rng):
        config = small_hierarchy_config(3)
        refs = random_references(rng, 2000)
        result = run_pass(config, refs)  # defaults: all null singletons
        assert result.references == 2000
        assert telemetry.get_registry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestTraceRoundTrip:
    def test_trace_aggregates_back_to_registry_counters(self, rng, tmp_path):
        config = small_hierarchy_config(3)
        refs = random_references(rng, 3000, span=1 << 14)
        registry = telemetry.enable_metrics()
        path = str(tmp_path / "trace.jsonl")
        telemetry.enable_tracing(path, sample_rate=1.0)
        result = run_pass(config, refs)
        telemetry.get_tracer().close()

        aggregate = aggregate_trace(path)
        assert aggregate["records"] == result.references
        counters = registry.snapshot()["counters"]
        derived = trace_counters(aggregate)
        for name in DESIGN_NAMES:
            for tier in range(2, config.num_tiers + 1):
                key = f"mnm.{name}.bypass.l{tier}"
                assert derived.get(key, 0) == counters[key]

    def test_sampled_trace_is_proportional(self, rng, tmp_path):
        config = small_hierarchy_config(3)
        refs = random_references(rng, 2000)
        path = str(tmp_path / "trace.jsonl")
        telemetry.enable_tracing(path, sample_rate=0.1)
        run_pass(config, refs)
        telemetry.get_tracer().close()
        assert aggregate_trace(path)["records"] == 200

    def test_trace_records_are_schema_complete(self, rng, tmp_path):
        config = small_hierarchy_config(3)
        refs = random_references(rng, 500)
        path = str(tmp_path / "trace.jsonl")
        telemetry.enable_tracing(path)
        run_pass(config, refs)
        telemetry.get_tracer().close()
        with open(path) as handle:
            record = json.loads(handle.readline())
        assert record["t"] == "access"
        assert record["kind"] in ("instruction", "load", "store")
        assert set(record["designs"]) == set(DESIGN_NAMES)
        for decision in record["designs"].values():
            assert len(decision["bits"]) == config.num_tiers


class TestCoreTraceMetrics:
    def test_core_trace_counters(self):
        config = small_hierarchy_config(3)
        trace = get_trace("twolf", 3000, 0)
        registry = telemetry.enable_metrics()
        run = run_core_trace(trace, config, parse_design("PERFECT"),
                             warmup=1000)
        counters = registry.snapshot()["counters"]
        assert counters["core.instructions"] == run.core.instructions
        assert counters["core.cycles"] == run.core.cycles
        # memory counters mirror the post-warmup coverage meter exactly
        meter = run.coverage
        for tier in range(2, config.num_tiers + 1):
            assert (counters[f"mnm.PERFECT.candidates.l{tier}"]
                    == meter.tier_candidates(tier))
        # cache stats were reset at the warmup boundary, like the meters
        for name, (probes, hits) in run.cache_stats.items():
            assert counters[f"cache.{name}.probes"] == probes
            assert counters[f"cache.{name}.hits"] == hits
