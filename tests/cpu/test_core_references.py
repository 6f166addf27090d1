"""The core's reference stream: one derivation, pinned to the core itself.

:func:`repro.cpu.core.core_references` is the stream the fast full-system
engine records and whose latencies the core's latency-column loop reads by
position, so it must equal the ``memory.access`` calls the interpreter's
loop of :meth:`OutOfOrderCore.run` makes —
whatever the latencies, the branch predictor or the core width — and its
boundary must be the number of accesses made when ``on_warmup_end`` fires.
``reference_stream`` below is the per-instruction loop the vectorised
derivation replaced, kept as a second reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresses import log2_exact
from repro.cache.cache import AccessKind
from repro.cache.presets import paper_hierarchy_5level
from repro.cpu.branch import PerfectPredictor
from repro.cpu.core import OutOfOrderCore, core_references, paper_core
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.memory import FixedLatencyMemory
from repro.simulate import build_memory
from repro.workloads import get_trace
from repro.workloads.trace import Trace


def reference_stream(instructions, fetch_block_size):
    """The derivation as a per-instruction loop: ``(address, kind)`` pairs."""
    line_shift = log2_exact(fetch_block_size)
    current_line = -1
    for inst in instructions:
        line = inst.pc >> line_shift
        if line != current_line:
            current_line = line
            yield inst.pc, AccessKind.INSTRUCTION
        if inst.op is OpClass.LOAD:
            yield inst.addr, AccessKind.LOAD
        elif inst.op is OpClass.STORE:
            yield inst.addr, AccessKind.STORE
        elif inst.op is OpClass.BRANCH:
            current_line = -1


def fetch_starts(instructions, fetch_block_size):
    """Per instruction: whether the per-instruction loop fetches its line."""
    line_shift = log2_exact(fetch_block_size)
    starts, current_line = [], -1
    for inst in instructions:
        line = inst.pc >> line_shift
        starts.append(line != current_line)
        current_line = -1 if inst.op is OpClass.BRANCH else line
    return starts


def pairs(references):
    """A derivation's columns as ``(address, kind)`` pairs."""
    kinds = tuple(AccessKind)
    return [(address, kinds[code]) for address, code in
            zip(references.addresses.tolist(), references.kinds.tolist())]


def logged_accesses(memory):
    """Wrap ``memory.access`` to log every call; returns the log."""
    log = []
    access = memory.access

    def logging_access(address, kind):
        log.append((address, kind))
        return access(address, kind)

    memory.access = logging_access
    return log


def core_accesses(instructions, memory, warmup=0):
    """The accesses the core makes, and how many the warm-up makes.

    The latter is the log's length when ``on_warmup_end`` fires; with no
    warm-up it is 0.  The core refuses a warm-up covering the trace before
    it makes any access; the accesses do not depend on the warm-up, so
    they are then those of a run without one, and every one is a warm-up
    access.
    """
    log = logged_accesses(memory)
    if 0 < warmup >= len(instructions):
        with pytest.raises(ValueError, match="covers the entire trace"):
            OutOfOrderCore(paper_core(8), memory).run(instructions,
                                                      warmup=warmup)
        assert log == []
        OutOfOrderCore(paper_core(8), memory).run(instructions)
        return log, len(log)
    boundary = []
    OutOfOrderCore(paper_core(8), memory).run(
        instructions, warmup=warmup,
        on_warmup_end=lambda: boundary.append(len(log)))
    if not boundary:
        boundary.append(0)
    assert len(boundary) == 1
    return log, boundary[0]


def assert_derivation_matches_core(instructions, block_size, warmup=0,
                                   memory=None):
    if memory is None:
        memory = FixedLatencyMemory(2, 30, block_size=block_size)
    log, boundary = core_accesses(instructions, memory, warmup)
    derived = core_references(instructions, block_size, warmup)
    assert pairs(derived) == log
    assert log == list(reference_stream(instructions, block_size))
    assert derived.boundary == boundary
    assert derived.fetches.tolist() == fetch_starts(instructions, block_size)
    return derived


@pytest.mark.parametrize("workload", ["mcf", "twolf", "gcc"])
def test_interpreter_accesses_equal_core_references(workload):
    memory = build_memory(paper_hierarchy_5level())
    assert_derivation_matches_core(get_trace(workload, 4000, 1).instructions,
                                   memory.fetch_block_size, 1000, memory)


@pytest.mark.parametrize("width, data_latency, perfect",
                         [(4, 2, False), (8, 300, True), (4, 40, True)])
def test_stream_does_not_depend_on_timing(width, data_latency, perfect):
    trace = get_trace("vpr", 3000, 2)
    memory = FixedLatencyMemory(3, data_latency, block_size=32)
    log = logged_accesses(memory)
    OutOfOrderCore(paper_core(width), memory,
                   PerfectPredictor() if perfect else None).run(
        trace.instructions)
    assert pairs(core_references(trace.instructions, 32)) == log


def test_columns_are_compact():
    derived = core_references(get_trace("gcc", 1000, 1).instructions, 32)
    assert derived.addresses.dtype.itemsize == 4
    assert derived.kinds.dtype.itemsize == 1


def ialu(pc):
    return Instruction(op=OpClass.IALU, pc=pc)


def branch(pc, taken=False):
    return Instruction(op=OpClass.BRANCH, pc=pc, taken=taken,
                       target=pc + 64)


def load(pc, addr):
    return Instruction(op=OpClass.LOAD, pc=pc, addr=addr)


def store(pc, addr):
    return Instruction(op=OpClass.STORE, pc=pc, addr=addr)


def test_empty_trace():
    derived = assert_derivation_matches_core([], 32)
    assert len(derived.addresses) == len(derived.kinds) == 0
    assert derived.boundary == 0
    assert core_references([], 32, warmup=5).boundary == 0


def test_branch_as_last_instruction():
    assert_derivation_matches_core(
        [ialu(0x100), load(0x104, 0x4000), branch(0x108, taken=True)], 32)


def test_back_to_back_branches():
    """Each branch ends the line, so the next branch fetches again."""
    instructions = [branch(0x100), branch(0x104), branch(0x108, taken=True),
                    store(0x10c, 0x4000), ialu(0x110)]
    derived = assert_derivation_matches_core(instructions, 32)
    assert pairs(derived) == [
        (0x100, AccessKind.INSTRUCTION), (0x104, AccessKind.INSTRUCTION),
        (0x108, AccessKind.INSTRUCTION), (0x10c, AccessKind.INSTRUCTION),
        (0x4000, AccessKind.STORE),
    ]


def test_fetch_blocks_of_8_and_64_bytes():
    instructions = get_trace("twolf", 600, 1).instructions
    fetches = []
    for block_size in (8, 64):
        derived = assert_derivation_matches_core(instructions, block_size)
        fetches.append(int((derived.kinds == 0).sum()))
    assert fetches[0] > fetches[1] > 0


@pytest.mark.parametrize("warmup", [0, 1, 250, 599])
def test_boundary_is_the_first_access_of_instruction_warmup(warmup):
    instructions = get_trace("gcc", 600, 2718).instructions
    assert warmup < len(instructions)
    derived = assert_derivation_matches_core(instructions, 32, warmup)
    before = list(reference_stream(instructions[:warmup], 32))
    assert derived.boundary == len(before)


@pytest.mark.parametrize("past_the_end", [0, 600])
def test_warmup_covering_the_trace_counts_every_access(past_the_end):
    instructions = get_trace("gcc", 300, 1).instructions
    derived = assert_derivation_matches_core(
        instructions, 32, len(instructions) + past_the_end)
    assert derived.boundary == len(derived.addresses)


def test_address_outside_the_address_space_rejected():
    """As the cache would reject it, at the first such access."""
    instructions = [ialu(0x100), load(0x104, 1 << 32), store(0x108, 1 << 33)]
    with pytest.raises(ValueError, match="0x100000000 outside"):
        core_references(instructions, 32)


def test_every_branch_ends_the_fetch_line():
    """The core's rule, against the hierarchy-only stream's taken-only rule."""
    instructions = [
        Instruction(op=OpClass.BRANCH, pc=0x100, taken=False, target=0x200),
        Instruction(op=OpClass.IALU, pc=0x104),
        Instruction(op=OpClass.LOAD, pc=0x108, addr=0x4000),
    ]
    assert pairs(core_references(instructions, 32)) == [
        (0x100, AccessKind.INSTRUCTION),
        (0x104, AccessKind.INSTRUCTION),  # refetched after a not-taken branch
        (0x4000, AccessKind.LOAD),
    ]
    stream = Trace("t", 0, instructions).memory_references(32)
    assert list(stream) == [(0x100, AccessKind.INSTRUCTION),
                            (0x4000, AccessKind.LOAD)]


def test_core_stream_has_more_fetches_than_the_figure_stream():
    trace = get_trace("twolf", 4000, 1)
    core = pairs(core_references(trace.instructions, 32))
    figures = list(trace.memory_references(32))
    fetches = [sum(kind is AccessKind.INSTRUCTION for _, kind in stream)
               for stream in (core, figures)]
    assert fetches[0] > fetches[1]
    data = [[ref for ref in stream if ref[1] is not AccessKind.INSTRUCTION]
            for stream in (core, figures)]
    assert data[0] == data[1]


@st.composite
def instruction_lists(draw):
    """Short programs over few lines: straight runs, jumps, every op."""
    steps = draw(st.lists(
        st.tuples(st.sampled_from(tuple(OpClass)), st.integers(0, 1 << 12),
                  st.booleans(), st.integers(-24, 24)),
        max_size=120))
    pc = draw(st.integers(0, 1 << 8)) * 4
    instructions = []
    for op, word, taken, offset in steps:
        is_branch = op is OpClass.BRANCH
        target = max(pc + 4 * offset, 0) if is_branch else -1
        instructions.append(Instruction(
            op=op, pc=pc, addr=word * 4 if op.is_memory else -1,
            taken=is_branch and taken, target=target))
        pc = target if is_branch and taken else pc + 4
    return instructions


@settings(max_examples=200, deadline=None)
@given(instructions=instruction_lists(),
       block_size=st.sampled_from((4, 8, 16, 32, 64, 128)), data=st.data())
def test_derivation_equals_core_on_generated_programs(instructions,
                                                      block_size, data):
    warmup = data.draw(st.integers(0, len(instructions)), label="warmup")
    assert_derivation_matches_core(instructions, block_size, warmup)
