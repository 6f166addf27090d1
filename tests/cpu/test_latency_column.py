"""The core's latency-column loop against its memory-system loop.

:meth:`OutOfOrderCore.run` with ``references`` and ``latencies`` (the
fast engine's loop) must return what the same core returns against a
memory system when ``references`` is the trace's
:func:`~repro.cpu.core.core_references` stream and the column holds the
latency that memory gives each of its accesses, in order, and train its
branch predictor the same way.  One of the two without the other raises
:class:`ValueError`; a column, stream and trace that disagree in length
raise :class:`RuntimeError`, also under ``python -O``.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.cache import AccessKind
from repro.cpu.branch import (
    BimodalPredictor,
    GSharePredictor,
    PerfectPredictor,
    StaticTakenPredictor,
)
from repro.cpu.core import OutOfOrderCore, core_references, paper_core
from repro.cpu.isa import OP_CODES, OpClass
from repro.cpu.memory import FixedLatencyMemory, MemorySystem
from repro.workloads import get_trace


class ScatteredMemory(MemorySystem):
    """Latencies that vary with the address: a fixed function of it, so
    some fetches stall and some loads outlast the MSHR threshold."""

    def __init__(self, block_size=32, l1_latency=2):
        self._block_size = block_size
        self._l1_latency = l1_latency

    def access(self, address, kind):
        mixed = (address * 2654435761 >> 9) & 0xFF
        if kind is AccessKind.INSTRUCTION:
            return self._l1_latency + (mixed % 40 if mixed < 24 else 0)
        return self._l1_latency + (mixed if mixed < 90 else 0)

    @property
    def fetch_block_size(self):
        return self._block_size

    @property
    def l1_instruction_latency(self):
        return self._l1_latency


def over_column(trace, memory):
    """``run``'s keywords for the latency-column loop: the trace's core
    stream and what ``memory`` answers for each of its accesses."""
    derived = core_references(trace, memory.fetch_block_size)
    kinds = tuple(AccessKind)
    column = np.array([memory.access(address, kinds[code]) for address, code
                       in zip(derived.addresses.tolist(),
                              derived.kinds.tolist())], np.int64)
    return {"references": derived, "latencies": column}


def both_loops(trace, memory, config, make_predictor, warmup):
    """Run both loops; return their results, warm-up callback counts and
    the predictors' final predictions at every branch pc."""
    outcomes = []
    for loop in ({}, over_column(trace, memory)):
        predictor = make_predictor()
        fired = []
        result = OutOfOrderCore(config, memory, predictor).run(
            trace, warmup=warmup, on_warmup_end=lambda: fired.append(1),
            **loop)
        branch = trace.columns.op == OP_CODES[OpClass.BRANCH.value]
        pcs = trace.columns.pc[branch].tolist()
        outcomes.append((result, len(fired),
                         [predictor.predict(pc) for pc in pcs]))
    return outcomes


PREDICTORS = {
    "bimodal": BimodalPredictor,
    "bimodal-16": lambda: BimodalPredictor(16),
    "gshare": GSharePredictor,
    "static-taken": StaticTakenPredictor,
    "perfect": PerfectPredictor,
}


@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
@pytest.mark.parametrize("app, warmup", [("mcf", 1000), ("twolf", 0),
                                         ("gcc", 2999)])
def test_latency_column_loop_equals_the_memory_loop(app, warmup, predictor):
    trace = get_trace(app, 3000, 1)
    oracle, fast = both_loops(trace, ScatteredMemory(), paper_core(8),
                              PREDICTORS[predictor], warmup)
    assert fast == oracle
    assert oracle[1] == (1 if warmup else 0)


@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_warmup_covering_the_trace_raises(predictor):
    """Both loops refuse a warm-up that leaves nothing to measure (the
    trace's length, or more), before either starts: the callback never
    fires and the predictor stays untrained."""
    trace = get_trace("vpr", 3000, 1)
    memory = ScatteredMemory()
    pcs = trace.columns.pc.tolist()
    untrained = [PREDICTORS[predictor]().predict(pc) for pc in pcs]
    for warmup in (len(trace), 5000):
        for loop in ({}, over_column(trace, memory)):
            used = PREDICTORS[predictor]()
            fired = []
            core = OutOfOrderCore(paper_core(8), memory, used)
            with pytest.raises(ValueError, match=f"warmup={warmup} covers "
                               f"the entire trace \\({len(trace)} "):
                core.run(trace, warmup=warmup,
                         on_warmup_end=lambda: fired.append(1), **loop)
            assert fired == []
            assert [used.predict(pc) for pc in pcs] == untrained


@pytest.mark.parametrize("changes", [
    {"width": 4, "ruu_size": 8, "lsq_size": 2},
    {"mshr_count": 0},
    {"mshr_count": 1, "mispredict_penalty": 0},
    {"frontend_depth": 0, "ruu_size": 16},
])
def test_small_windows_and_mshrs(changes):
    config = dataclasses.replace(paper_core(8), **changes)
    trace = get_trace("art", 3000, 2718)
    oracle, fast = both_loops(trace, ScatteredMemory(block_size=16), config,
                              BimodalPredictor, 750)
    assert fast == oracle


@pytest.mark.parametrize("change", [-1, 1])
def test_column_of_another_length_raises(change):
    """One entry short or one over the derived stream: RuntimeError, not an
    assert, so ``python -O`` keeps the check."""
    trace = get_trace("gcc", 2000, 1)
    memory = FixedLatencyMemory(2, 30, block_size=32)
    loop = over_column(trace, memory)
    column = loop["latencies"]
    wrong = column[:change] if change < 0 else np.append(column, 2)
    core = OutOfOrderCore(paper_core(8), memory)
    with pytest.raises(RuntimeError, match="derived reference stream"):
        core.run(trace, warmup=500, references=loop["references"],
                 latencies=wrong)
    result = core.run(trace, warmup=500, **loop)
    assert result.instructions == len(trace) - 500


def test_stream_of_another_trace_raises():
    """A stream derived from another trace, with a column that fits it:
    RuntimeError, not an assert."""
    trace = get_trace("gcc", 2000, 1)
    memory = FixedLatencyMemory(2, 30, block_size=32)
    core = OutOfOrderCore(paper_core(8), memory)
    other = get_trace("gcc", 1000, 1)
    assert len(other) != len(trace)
    with pytest.raises(RuntimeError, match=f"over a trace of {len(trace)}"):
        core.run(trace, warmup=500, **over_column(other, memory))


def test_references_and_latencies_come_together():
    trace = get_trace("gcc", 2000, 1)
    memory = FixedLatencyMemory(2, 30, block_size=32)
    core = OutOfOrderCore(paper_core(8), memory)
    for one, value in over_column(trace, memory).items():
        with pytest.raises(ValueError, match="pass both or neither"):
            core.run(trace, warmup=500, **{one: value})


def test_empty_trace():
    memory = FixedLatencyMemory()
    result = OutOfOrderCore(paper_core(8), memory).run(
        [], **over_column([], memory))
    assert result == OutOfOrderCore(paper_core(8), memory).run([])
    with pytest.raises(RuntimeError, match="derived reference stream"):
        OutOfOrderCore(paper_core(8), memory).run(
            [], references=core_references([], memory.fetch_block_size),
            latencies=[2])
