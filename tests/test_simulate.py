"""Tests for the high-level simulation façade."""

import pytest

from repro.cache.cache import AccessKind
from repro.cache.presets import paper_hierarchy_5level
from repro.core.base import Placement
from repro.core.presets import (
    hmnm_design,
    null_design,
    parse_design,
    perfect_design,
    tmnm_design,
)
from repro.cpu.core import paper_core
from repro.simulate import (
    build_memory,
    run_core_trace,
    run_reference_pass,
)
from repro.workloads import get_trace
from repro.workloads.trace import Trace
from tests.conftest import small_hierarchy_config

CONFIG = small_hierarchy_config(3)


class TestBuildMemory:
    def test_baseline_has_no_mnm(self):
        memory = build_memory(CONFIG, None)
        assert memory.mnm is None
        assert memory.coverage is None
        assert memory.accountant is not None

    def test_null_design_is_baseline(self):
        memory = build_memory(CONFIG, null_design())
        assert memory.mnm is None

    def test_active_design_builds_machine(self):
        memory = build_memory(CONFIG, tmnm_design(8, 1))
        assert memory.mnm is not None
        assert memory.coverage is not None

    def test_access_returns_latency(self):
        memory = build_memory(CONFIG, None)
        cold = memory.access(0x4000, AccessKind.LOAD)
        warm = memory.access(0x4000, AccessKind.LOAD)
        assert cold == 1 + 4 + 8 + 100
        assert warm == 1

    def test_fetch_properties(self):
        memory = build_memory(CONFIG, None)
        assert memory.fetch_block_size == 16
        assert memory.l1_instruction_latency == 1

    def test_reset_meters_keeps_state(self):
        memory = build_memory(CONFIG, tmnm_design(8, 1))
        memory.access(0x4000, AccessKind.LOAD)
        memory.reset_meters()
        assert memory.accountant.totals.accesses == 0
        assert memory.access(0x4000, AccessKind.LOAD) == 1  # still warm


class TestRunCoreTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return get_trace("twolf", 4000, seed=0)

    def test_baseline_run(self, trace):
        run = run_core_trace(trace, CONFIG, None, core_config=paper_core(4))
        assert run.design_name == "NONE"
        assert run.cycles > 0
        assert run.coverage is None
        assert 0.0 < run.hit_rate("dl1") <= 1.0

    def test_mnm_run_reports_coverage(self, trace):
        run = run_core_trace(trace, CONFIG, hmnm_design(1),
                             core_config=paper_core(4))
        assert run.design_name == "HMNM1"
        assert run.coverage is not None
        assert run.coverage.violations == 0

    def test_perfect_never_slower(self, trace):
        base = run_core_trace(trace, CONFIG, None, core_config=paper_core(4))
        perfect = run_core_trace(trace, CONFIG, perfect_design(),
                                 core_config=paper_core(4))
        assert perfect.cycles <= base.cycles

    def test_real_design_bounded_by_perfect(self, trace):
        base = run_core_trace(trace, CONFIG, None, core_config=paper_core(4))
        perfect = run_core_trace(trace, CONFIG, perfect_design(),
                                 core_config=paper_core(4))
        real = run_core_trace(trace, CONFIG, hmnm_design(4),
                              core_config=paper_core(4))
        assert perfect.cycles <= real.cycles <= base.cycles

    def test_warmup_shrinks_counts(self, trace):
        full = run_core_trace(trace, CONFIG, None, core_config=paper_core(4))
        tail = run_core_trace(trace, CONFIG, None, core_config=paper_core(4),
                              warmup=len(trace) // 2)
        assert tail.core.instructions < full.core.instructions
        assert tail.cycles < full.cycles

    @pytest.mark.parametrize("engine", ["interp", "fast"])
    def test_warmup_covering_the_trace_raises(self, trace, engine):
        """Regression: a warm-up covering the trace used to report the
        whole run as measured (``instructions=0`` beside the cycles,
        events and statistics of every instruction)."""
        for warmup in (len(trace), len(trace) + 10):
            with pytest.raises(ValueError, match="warmup"):
                run_core_trace(trace, CONFIG, hmnm_design(1), warmup=warmup,
                               engine=engine)
        empty = Trace(name="empty", seed=0, instructions=[])
        with pytest.raises(ValueError, match="warmup=0"):
            run_core_trace(empty, CONFIG, None, engine=engine)
        last = run_core_trace(trace, CONFIG, None, warmup=len(trace) - 1,
                              engine=engine)
        assert last.core.instructions == 1

    @pytest.mark.parametrize("engine", ["interp", "fast"])
    def test_negative_warmup_raises(self, trace, engine):
        """Regression: a negative warm-up inflated the reported
        instruction count (``count - warmup``) instead of failing."""
        for warmup in (-1, -100):
            with pytest.raises(ValueError, match="warmup must be >= 0"):
                run_core_trace(trace, CONFIG, hmnm_design(1), warmup=warmup,
                               engine=engine)

    def test_deterministic(self, trace):
        a = run_core_trace(trace, CONFIG, hmnm_design(2),
                           core_config=paper_core(4))
        b = run_core_trace(trace, CONFIG, hmnm_design(2),
                           core_config=paper_core(4))
        assert a.cycles == b.cycles
        assert a.energy.total_nj == b.energy.total_nj


class TestRunReferencePass:
    @pytest.fixture(scope="class")
    def refs(self):
        trace = get_trace("twolf", 4000, seed=0)
        return list(trace.memory_references(16))

    def test_multi_design_pass(self, refs):
        designs = [tmnm_design(8, 1), perfect_design()]
        result = run_reference_pass(refs, CONFIG, designs, "twolf")
        assert result.references == len(refs)
        assert set(result.designs) == {"TMNM_8x1", "PERFECT"}
        perfect = result.designs["PERFECT"].coverage
        assert perfect.coverage == 1.0
        real = result.designs["TMNM_8x1"].coverage
        assert 0.0 <= real.coverage <= 1.0
        assert real.violations == 0

    def test_baseline_metrics(self, refs):
        result = run_reference_pass(refs, CONFIG, [], "twolf")
        assert result.baseline_access_time > 0
        assert 0.0 < result.miss_time_fraction < 1.0
        assert result.baseline_energy.total_nj > 0

    def test_reductions_ordered(self, refs):
        designs = [tmnm_design(8, 1), perfect_design()]
        result = run_reference_pass(refs, CONFIG, designs, "twolf")
        real = result.access_time_reduction("TMNM_8x1")
        perfect = result.access_time_reduction("PERFECT")
        assert 0.0 <= real <= perfect < 1.0

    def test_energy_reduction_perfect_positive(self, refs):
        result = run_reference_pass(
            refs, CONFIG,
            [perfect_design().with_placement(Placement.SERIAL)], "twolf")
        assert result.energy_reduction("PERFECT") > 0.0

    def test_warmup_excluded(self, refs):
        full = run_reference_pass(refs, CONFIG, [], "twolf")
        tail = run_reference_pass(refs, CONFIG, [], "twolf",
                                  warmup=len(refs) // 2)
        assert tail.references == len(refs) - len(refs) // 2
        assert tail.baseline_access_time < full.baseline_access_time

    def test_cache_stats_exposed(self, refs):
        result = run_reference_pass(refs, CONFIG, [], "twolf")
        assert "dl1" in result.cache_stats
        probes, hits = result.cache_stats["dl1"]
        assert probes >= hits >= 0

    def test_warmup_consuming_everything_raises(self, refs):
        """Regression: warmup >= stream length used to return division-
        by-zero garbage averages instead of failing loudly."""
        with pytest.raises(ValueError, match="warmup"):
            run_reference_pass(refs, CONFIG, [], "twolf", warmup=len(refs))
        with pytest.raises(ValueError, match="warmup"):
            run_reference_pass(refs, CONFIG, [], "twolf",
                               warmup=len(refs) + 10)

    @pytest.mark.parametrize("engine", ["interp", "fast"])
    def test_negative_warmup_raises(self, refs, engine):
        """Regression: a negative warm-up was silently treated as 0."""
        with pytest.raises(ValueError, match="warmup must be >= 0"):
            run_reference_pass(refs, CONFIG, [tmnm_design(8, 1)], "twolf",
                               warmup=-1, engine=engine)

    def test_storage_bits_reported(self, refs):
        result = run_reference_pass(refs, CONFIG, [tmnm_design(8, 1)],
                                    "twolf")
        assert result.designs["TMNM_8x1"].storage_bits > 0

    def test_hot_loop_counter_equality(self, refs):
        """Pin the hot-loop accounting against the analytic totals.

        The per-reference loop had its allocations hoisted out; this pins
        that the restructuring kept exactly one query and one record per
        (reference, design) — the counters are derived per reference, so
        any skipped or doubled iteration shifts them.
        """
        from repro import telemetry

        designs = [tmnm_design(8, 1), perfect_design()]
        try:
            registry = telemetry.enable_metrics()
            result = run_reference_pass(refs, CONFIG, designs, "twolf")
            counters = registry.snapshot()["counters"]
        finally:
            telemetry.reset()
        assert counters["pass.references"] == len(refs)
        assert counters["mnm.queries"] == len(refs) * len(designs)
        for design_name, design_result in result.designs.items():
            meter = design_result.coverage
            assert meter.accesses == len(refs)
            for tier in range(2, meter.num_tiers + 1):
                assert (counters[f"mnm.{design_name}.bypass.l{tier}"]
                        <= counters[f"mnm.{design_name}.candidates.l{tier}"])


class TestMalformedKind:
    """A kind that is not an :class:`AccessKind` raises ``KeyError(kind)``
    in both engines, at the first such reference, warm-up included."""

    @pytest.mark.parametrize("designs", [[], ["TMNM_10x1"]],
                             ids=["baseline", "tmnm"])
    @pytest.mark.parametrize("first", [50, 250], ids=["warmup", "measured"])
    def test_first_bad_kind_raises(self, first, designs):
        references = [(64 * index, AccessKind.LOAD) for index in range(400)]
        references[first] = (references[first][0], "load")
        references[first + 100] = (references[first + 100][0], "store")
        for engine in ("interp", "fast"):
            with pytest.raises(KeyError) as caught:
                run_reference_pass(
                    references, paper_hierarchy_5level(),
                    [parse_design(name) for name in designs], "bad",
                    warmup=100, engine=engine)
            assert caught.value.args == ("load",), engine
