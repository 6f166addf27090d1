"""The core's reference stream: one derivation, pinned to the core itself.

:func:`repro.cpu.core.core_references` is the stream the fast full-system
engine records and the replayed memory checks the core against, so it must
equal the ``memory.access`` calls :meth:`OutOfOrderCore.run` makes —
whatever the latencies, the branch predictor or the core width.
"""

import pytest

from repro.cache.cache import AccessKind
from repro.cache.presets import paper_hierarchy_5level
from repro.cpu.branch import PerfectPredictor
from repro.cpu.core import OutOfOrderCore, core_references, paper_core
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.memory import FixedLatencyMemory
from repro.simulate import build_memory
from repro.workloads import get_trace
from repro.workloads.trace import Trace


def logged_accesses(memory):
    """Wrap ``memory.access`` to log every call; returns the log."""
    log = []
    access = memory.access

    def logging_access(address, kind):
        log.append((address, kind))
        return access(address, kind)

    memory.access = logging_access
    return log


@pytest.mark.parametrize("workload", ["mcf", "twolf", "gcc"])
def test_interpreter_accesses_equal_core_references(workload):
    trace = get_trace(workload, 4000, 1)
    hierarchy = paper_hierarchy_5level()
    memory = build_memory(hierarchy)
    log = logged_accesses(memory)
    OutOfOrderCore(paper_core(8), memory).run(trace.instructions,
                                              warmup=1000)
    assert log == list(core_references(trace.instructions,
                                       memory.fetch_block_size))


@pytest.mark.parametrize("width, data_latency, perfect",
                         [(4, 2, False), (8, 300, True), (4, 40, True)])
def test_stream_does_not_depend_on_timing(width, data_latency, perfect):
    trace = get_trace("vpr", 3000, 2)
    memory = FixedLatencyMemory(3, data_latency, block_size=32)
    log = logged_accesses(memory)
    OutOfOrderCore(paper_core(width), memory,
                   PerfectPredictor() if perfect else None).run(
        trace.instructions)
    assert log == list(core_references(trace.instructions, 32))


def test_every_branch_ends_the_fetch_line():
    """The core's rule, against the hierarchy-only stream's taken-only rule."""
    instructions = [
        Instruction(op=OpClass.BRANCH, pc=0x100, taken=False, target=0x200),
        Instruction(op=OpClass.IALU, pc=0x104),
        Instruction(op=OpClass.LOAD, pc=0x108, addr=0x4000),
    ]
    assert list(core_references(instructions, 32)) == [
        (0x100, AccessKind.INSTRUCTION),
        (0x104, AccessKind.INSTRUCTION),  # refetched after a not-taken branch
        (0x4000, AccessKind.LOAD),
    ]
    stream = Trace("t", 0, instructions).memory_references(32)
    assert list(stream) == [(0x100, AccessKind.INSTRUCTION),
                            (0x4000, AccessKind.LOAD)]


def test_core_stream_has_more_fetches_than_the_figure_stream():
    trace = get_trace("twolf", 4000, 1)
    core = list(core_references(trace.instructions, 32))
    figures = list(trace.memory_references(32))
    fetches = [sum(kind is AccessKind.INSTRUCTION for _, kind in stream)
               for stream in (core, figures)]
    assert fetches[0] > fetches[1]
    data = [[ref for ref in stream if ref[1] is not AccessKind.INSTRUCTION]
            for stream in (core, figures)]
    assert data[0] == data[1]
