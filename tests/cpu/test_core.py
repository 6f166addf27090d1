"""Tests for the out-of-order core timing model."""

import dataclasses

import pytest

from repro.cpu.branch import PerfectPredictor, StaticTakenPredictor
from repro.cpu.core import CoreConfig, CoreResult, OutOfOrderCore, paper_core
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.memory import FixedLatencyMemory


def ialu(i, dest=-1, src1=-1, src2=-1, pc=None):
    return Instruction(op=OpClass.IALU, pc=pc if pc is not None else 0x1000 + 4 * (i % 8),
                       dest=dest, src1=src1, src2=src2)


def run_core(instructions, width=8, data_latency=2, predictor=None):
    memory = FixedLatencyMemory(2, data_latency)
    core = OutOfOrderCore(paper_core(width), memory,
                          predictor or PerfectPredictor())
    return core.run(instructions), memory


class TestPaperCores:
    def test_eight_way_resources(self):
        config = paper_core(8)
        assert config.width == 8
        assert config.ruu_size == 128
        assert config.lsq_size == 64

    def test_four_way_is_half(self):
        config = paper_core(4)
        assert config.width == 4
        assert config.ruu_size == 64
        assert config.lsq_size == 32

    def test_other_widths_rejected(self):
        with pytest.raises(ValueError):
            paper_core(2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(name="bad", width=0, ruu_size=8, lsq_size=8, units={})

    @pytest.mark.parametrize("name", ["mshr_count", "frontend_depth",
                                      "mispredict_penalty"])
    def test_negative_counts_and_delays_rejected(self, name):
        """Regression: ``mshr_count=-1`` passed, then the first long-latency
        load raised IndexError; negative delays ran."""
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            dataclasses.replace(paper_core(8), **{name: -1})
        zero = dataclasses.replace(paper_core(8), **{name: 0})
        loads = [Instruction(op=OpClass.LOAD, pc=0x1000, dest=8, addr=0x2000)
                 for _ in range(50)]
        core = OutOfOrderCore(zero, FixedLatencyMemory(2, 40),
                              StaticTakenPredictor())
        assert core.run(loads).loads == 50

    def test_missing_latency_rejected(self):
        latencies = dict(paper_core(8).latencies)
        del latencies[OpClass.FMUL]
        with pytest.raises(ValueError, match="latency for fmul"):
            dataclasses.replace(paper_core(8), latencies=latencies)
        # a load's latency comes from the memory, so it needs none
        assert OpClass.LOAD not in paper_core(8).latencies


class TestThroughput:
    def test_independent_alu_achieves_width(self):
        result, _ = run_core([ialu(i) for i in range(8000)])
        assert result.ipc > 6.0  # near the 8-wide limit

    def test_narrow_machine_halves_throughput(self):
        wide, _ = run_core([ialu(i) for i in range(4000)], width=8)
        narrow, _ = run_core([ialu(i) for i in range(4000)], width=4)
        assert narrow.cycles > wide.cycles * 1.7

    def test_dependence_chain_serialises(self):
        chain = [ialu(i, dest=8, src1=8) for i in range(2000)]
        result, _ = run_core(chain)
        assert result.cycles >= 2000  # one per cycle at best

    def test_fmul_latency_on_chain(self):
        chain = [Instruction(op=OpClass.FMUL, pc=0x1000, dest=8, src1=8)
                 for _ in range(500)]
        result, _ = run_core(chain)
        assert result.cycles >= 500 * 4  # 4-cycle FMUL chained


class TestMemoryBehaviour:
    def test_independent_loads_overlap(self):
        loads = [Instruction(op=OpClass.LOAD, pc=0x1000, dest=8 + (i % 16),
                             addr=0x2000) for i in range(1000)]
        result, _ = run_core(loads, data_latency=30)
        # 4 load ports, fully overlapped: far below serial 30-cycle each
        assert result.cycles < 1000 * 30 / 4

    def test_dependent_loads_serialise(self):
        loads = [Instruction(op=OpClass.LOAD, pc=0x1000, dest=8, src1=8,
                             addr=0x2000) for i in range(500)]
        result, _ = run_core(loads, data_latency=30)
        assert result.cycles >= 500 * 30

    def test_memory_latency_matters(self):
        loads = [Instruction(op=OpClass.LOAD, pc=0x1000, dest=8, src1=8,
                             addr=0x2000) for i in range(200)]
        fast, _ = run_core(loads, data_latency=2)
        slow, _ = run_core(loads, data_latency=50)
        assert slow.cycles > fast.cycles * 10

    def test_stores_do_not_block(self):
        stores = [Instruction(op=OpClass.STORE, pc=0x1000, src1=1, src2=2,
                              addr=0x2000) for _ in range(1000)]
        result, _ = run_core(stores, data_latency=100)
        assert result.cycles < 2000  # store latency hidden by store buffer

    def test_icache_access_per_line(self):
        # 8 instructions per 32B line: one icache access per line
        insts = [ialu(i, pc=0x1000 + 4 * i) for i in range(800)]
        result, memory = run_core(insts)
        assert memory.instruction_accesses == 100
        assert result.fetch_lines == 100

    def test_load_store_counts(self):
        insts = [
            Instruction(op=OpClass.LOAD, pc=0x1000, dest=8, addr=0x2000),
            Instruction(op=OpClass.STORE, pc=0x1004, src1=8, addr=0x2000),
            ialu(0, pc=0x1008),
        ] * 50
        result, _ = run_core(insts)
        assert result.loads == 50
        assert result.stores == 50


class TestBranches:
    @staticmethod
    def loop_trace(iterations, body=8):
        insts = []
        for iteration in range(iterations):
            for slot in range(body - 1):
                insts.append(ialu(slot, pc=0x1000 + 4 * slot))
            insts.append(Instruction(
                op=OpClass.BRANCH, pc=0x1000 + 4 * (body - 1),
                taken=iteration != iterations - 1, target=0x1000))
        return insts

    def test_mispredicts_cost_cycles(self):
        trace = self.loop_trace(400)
        good, _ = run_core(trace, predictor=PerfectPredictor())
        # static taken mispredicts the loop exit only; force worse with an
        # anti-pattern: alternate taken/not-taken branches
        alternating = []
        for i in range(1000):
            alternating.append(Instruction(
                op=OpClass.BRANCH, pc=0x1000, taken=i % 2 == 0,
                target=0x1000))
        perfect, _ = run_core(alternating, predictor=PerfectPredictor())
        static, _ = run_core(alternating, predictor=StaticTakenPredictor())
        assert static.cycles > perfect.cycles
        assert static.mispredicts == 500

    def test_mispredict_rate_reported(self):
        alternating = [Instruction(op=OpClass.BRANCH, pc=0x1000,
                                   taken=i % 2 == 0, target=0x1000)
                       for i in range(100)]
        result, _ = run_core(alternating, predictor=StaticTakenPredictor())
        assert result.mispredict_rate == pytest.approx(0.5)

    def test_branch_counts(self):
        result, _ = run_core(self.loop_trace(100))
        assert result.branches == 100


class TestWarmup:
    def test_warmup_excludes_leading_cycles(self):
        insts = [ialu(i) for i in range(2000)]
        full, _ = run_core(insts)
        core = OutOfOrderCore(paper_core(8), FixedLatencyMemory(2, 2),
                              PerfectPredictor())
        tail = core.run(insts, warmup=1000)
        assert tail.instructions == 1000
        assert 0 < tail.cycles < full.cycles

    def test_warmup_callback_fires_once(self):
        calls = []
        core = OutOfOrderCore(paper_core(8), FixedLatencyMemory(2, 2),
                              PerfectPredictor())
        core.run([ialu(i) for i in range(100)], warmup=50,
                 on_warmup_end=lambda: calls.append(1))
        assert calls == [1]

    def test_negative_warmup_rejected(self):
        """Regression: ``instructions = count - warmup`` counted a negative
        warm-up as extra instructions."""
        core = OutOfOrderCore(paper_core(8), FixedLatencyMemory(2, 2),
                              PerfectPredictor())
        with pytest.raises(ValueError, match="warmup must be >= 0"):
            core.run([ialu(i) for i in range(100)], warmup=-5)

    @pytest.mark.parametrize("warmup", [100, 101])
    def test_warmup_covering_the_trace_rejected(self, warmup):
        """Regression: the counters reset only when instruction ``warmup``
        was reached, so a warm-up covering the trace returned the whole
        trace's cycles next to ``instructions=0``."""
        core = OutOfOrderCore(paper_core(8), FixedLatencyMemory(2, 2),
                              PerfectPredictor())
        with pytest.raises(ValueError, match=f"warmup={warmup} covers the "
                           "entire trace \\(100 instructions\\)"):
            core.run([ialu(i) for i in range(100)], warmup=warmup)
        with pytest.raises(ValueError, match="covers the entire trace"):
            core.run([], warmup=1)
        assert core.run([]) == CoreResult(0, 0, 0, 0, 0, 0, 0)

    def test_zero_warmup_no_callback(self):
        calls = []
        core = OutOfOrderCore(paper_core(8), FixedLatencyMemory(2, 2),
                              PerfectPredictor())
        core.run([ialu(i) for i in range(100)], warmup=0,
                 on_warmup_end=lambda: calls.append(1))
        assert calls == []


class TestWindowLimits:
    def test_small_window_limits_overlap(self):
        """With RUU=width the machine is effectively in-order: a long load
        stalls everything behind it."""
        insts = []
        for i in range(200):
            insts.append(Instruction(op=OpClass.LOAD, pc=0x1000,
                                     dest=8 + i % 8, addr=0x2000))
            insts.extend(ialu(j, pc=0x1004 + 4 * j) for j in range(7))
        big = paper_core(8)
        tiny = CoreConfig(name="tiny", width=8, ruu_size=8, lsq_size=4,
                          units=big.units)
        wide_core = OutOfOrderCore(big, FixedLatencyMemory(2, 40),
                                   PerfectPredictor())
        tiny_core = OutOfOrderCore(tiny, FixedLatencyMemory(2, 40),
                                   PerfectPredictor())
        wide = wide_core.run(insts)
        small = tiny_core.run(insts)
        assert small.cycles > wide.cycles
