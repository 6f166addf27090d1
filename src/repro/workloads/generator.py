"""Synthetic trace generator.

Generates committed-path instruction traces from a
:class:`~repro.workloads.spec.WorkloadProfile`: loop episodes inside a
function working set (instruction stream), a weighted mixture of data
streams (data addresses), rotating destination registers with
recent-producer sources (dependence chains), loop-closing branches that are
predictable plus data-dependent branches with configurable bias.

Everything is driven by a single seeded RNG: the same (profile, seed,
length) always produces the identical trace.
"""

from __future__ import annotations

import random
import zlib
from typing import List

from repro.cpu.isa import (
    INSTRUCTION_BYTES,
    OP_CODES,
    InstructionColumns,
    OpClass,
)
from repro.workloads.patterns import (
    AddressPattern,
    HotColdPattern,
    LoopReusePattern,
    PointerChasePattern,
    RandomPattern,
    Region,
    ZipfPattern,
    SequentialPattern,
    StridedPattern,
)
from repro.workloads.spec import StreamSpec, WorkloadProfile
from repro.workloads.trace import Trace

#: Where code lives (matches typical Alpha/Unix text segments).
CODE_BASE = 0x0040_0000

#: First data region base; streams are spaced 32 MB apart so their high
#: address bits differ (this is what the CMNM's virtual-tag finder keys on).
DATA_BASE = 0x1000_0000
DATA_SPACING = 0x0200_0000

#: Stack segment: a small contiguous region of spilled locals and scalars.
#: Contiguous blocks never conflict in a direct-mapped L1, which is what
#: keeps real programs' L1 hit rates high even on a 4KB cache.
STACK_BASE = 0x7FFF_0000
STACK_BYTES = 512

#: Instructions per synthetic function.
FUNCTION_INSTRUCTIONS = 64

#: How many registers rotate as destinations (the rest stay read-only).
_FIRST_DEST = 8
_LAST_DEST = 31

_LOAD, _STORE, _BRANCH = (
    OP_CODES[op.value] for op in (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH))


def _build_pattern(
    spec: StreamSpec, region: Region, rng: random.Random
) -> AddressPattern:
    if spec.kind == "sequential":
        return SequentialPattern(region, step=spec.param or 8)
    if spec.kind == "strided":
        return StridedPattern(region, stride=spec.param or 256)
    if spec.kind == "random":
        return RandomPattern(region, rng)
    if spec.kind == "pointer":
        return PointerChasePattern(region, rng, node_size=spec.param or 64)
    if spec.kind == "hot":
        return HotColdPattern(region, rng, hot_bytes=spec.param or 4096)
    if spec.kind == "loop":
        return LoopReusePattern(region, step=spec.param or 8)
    if spec.kind == "zipf":
        return ZipfPattern(region, rng, block_size=spec.param or 64)
    raise ValueError(f"unknown stream kind {spec.kind!r}")


class TraceGenerator:
    """Builds traces for one profile; reusable across lengths."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        # Mix the workload name into the seed so equal seeds still give
        # distinct streams per application.
        mixed = seed ^ zlib.crc32(profile.name.encode())
        self._rng = random.Random(mixed)
        self._streams: List[AddressPattern] = []
        self._cumulative: List[float] = []
        total_weight = sum(s.weight for s in profile.streams)
        running = 0.0
        for index, spec in enumerate(profile.streams):
            region = Region(DATA_BASE + index * DATA_SPACING, spec.size)
            self._streams.append(_build_pattern(spec, region, self._rng))
            running += spec.weight / total_weight
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0

        self._num_functions = max(
            profile.code_bytes // (FUNCTION_INSTRUCTIONS * INSTRUCTION_BYTES), 1
        )
        self._hot_functions = max(self._num_functions // 5, 1)
        self._dest = _FIRST_DEST
        self._recent: List[int] = [0] * 6
        self._recent_pos = 0
        self._last_data_branch = True
        # Recently used data addresses: the word-level temporal locality
        # pool (stack locals, loop-carried scalars) drawn from with
        # probability ``profile.data_reuse``.
        self._recent_addrs: List[int] = [DATA_BASE] * 64
        self._recent_addr_pos = 0

    # ------------------------------------------------------------ plumbing

    def _data_address(self) -> int:
        rng = self._rng
        reuse_draw = rng.random()
        reuse = self.profile.data_reuse
        if reuse_draw < reuse * 0.85:
            # stack access: spilled locals, contiguous and conflict-free
            return STACK_BASE + rng.randrange(STACK_BYTES // 8) * 8
        if reuse_draw < reuse:
            # re-touch of a recently used heap address
            return self._recent_addrs[rng.randrange(len(self._recent_addrs))]
        pick = rng.random()
        for index, boundary in enumerate(self._cumulative):
            if pick <= boundary:
                break
        address = self._streams[index].next_address()
        self._recent_addrs[self._recent_addr_pos] = address
        self._recent_addr_pos = (self._recent_addr_pos + 1) % len(self._recent_addrs)
        return address

    def _next_dest(self) -> int:
        dest = self._dest
        self._dest += 1
        if self._dest > _LAST_DEST:
            self._dest = _FIRST_DEST
        self._recent[self._recent_pos] = dest
        self._recent_pos = (self._recent_pos + 1) % len(self._recent)
        return dest

    def _source(self) -> int:
        # Mostly-independent operands: real integer/FP code exposes ILP of
        # several instructions per cycle on an 8-wide window; drawing every
        # source from the latest producers would serialise everything.
        if self._rng.random() < 0.45:
            return self._recent[self._rng.randrange(len(self._recent))]
        return self._rng.randrange(0, _LAST_DEST + 1)

    def _choose_function(self) -> int:
        if self._rng.random() < self.profile.hot_function_fraction:
            index = self._rng.randrange(self._hot_functions)
        else:
            index = self._rng.randrange(self._num_functions)
        return CODE_BASE + index * FUNCTION_INSTRUCTIONS * INSTRUCTION_BYTES

    def _alu_op(self) -> OpClass:
        if self.profile.fp_fraction and self._rng.random() < self.profile.fp_fraction:
            return OpClass.FMUL if self._rng.random() < 0.2 else OpClass.FALU
        return OpClass.IMUL if self._rng.random() < 0.1 else OpClass.IALU

    def _plan_body(self, body_len: int) -> List[OpClass]:
        """Static op classes for one loop body; the last slot is the
        loop-closing branch."""
        profile = self.profile
        # the loop branch itself consumes part of the branch budget
        extra_branch = max(profile.branch_fraction - 1.0 / body_len, 0.0)
        plan: List[OpClass] = []
        for _ in range(body_len - 1):
            draw = self._rng.random()
            if draw < profile.load_fraction:
                plan.append(OpClass.LOAD)
            elif draw < profile.load_fraction + profile.store_fraction:
                plan.append(OpClass.STORE)
            elif draw < (
                profile.load_fraction + profile.store_fraction + extra_branch
            ):
                plan.append(OpClass.BRANCH)
            else:
                plan.append(self._alu_op())
        plan.append(OpClass.BRANCH)
        return plan

    # ----------------------------------------------------------- generation

    def generate(self, num_instructions: int) -> Trace:
        """Produce a trace of at least ``num_instructions`` instructions
        (rounded up to the end of the final loop episode).

        Each instruction is appended as one row of column values, with
        its random draws made in field order; the rows become the trace's
        columns at the end.  No :class:`Instruction` object is built.
        """
        if num_instructions < 1:
            raise ValueError(
                f"num_instructions must be >= 1, got {num_instructions}"
            )
        profile = self.profile
        rng = self._rng
        source = self._source
        next_dest = self._next_dest
        data_address = self._data_address
        rows: List[tuple] = []
        append = rows.append

        while len(rows) < num_instructions:
            function_base = self._choose_function()
            body_len = max(
                4, int(rng.gauss(profile.loop_body, profile.loop_body * 0.25))
            )
            body_len = min(body_len, FUNCTION_INSTRUCTIONS - 1)
            start_slot = rng.randrange(FUNCTION_INSTRUCTIONS - body_len)
            loop_start = function_base + start_slot * INSTRUCTION_BYTES
            iterations = max(
                1,
                min(
                    int(rng.expovariate(1.0 / profile.loop_iterations)) + 1,
                    profile.loop_iterations * 4,
                ),
            )
            plan = [OP_CODES[op.value] for op in self._plan_body(body_len)]

            for iteration in range(iterations):
                slot = 0
                while slot < body_len:
                    op = plan[slot]
                    pc = loop_start + slot * INSTRUCTION_BYTES
                    # Row fields: op, pc, dest, src1, src2, addr, taken,
                    # target (InstructionColumns order).
                    if op == _LOAD:
                        # Address registers are usually ready well before
                        # the load issues (induction variables, base
                        # pointers); tying them to the newest producers
                        # would serialise every load behind the previous
                        # instruction, which real code does not do.
                        address_reg = (
                            source()
                            if rng.random() < 0.25
                            else rng.randrange(0, _FIRST_DEST)
                        )
                        append((op, pc, next_dest(), address_reg, -1,
                                data_address(), False, -1))
                    elif op == _STORE:
                        append((op, pc, -1, source(), source(),
                                data_address(), False, -1))
                    elif op == _BRANCH and slot == body_len - 1:
                        # loop branches test an induction variable held in
                        # a stable register — they never wait on loads
                        append((op, pc, -1, rng.randrange(0, _FIRST_DEST),
                                -1, -1, iteration != iterations - 1,
                                loop_start))
                    elif op == _BRANCH:
                        # data-dependent forward branch over one instruction
                        if rng.random() < profile.branch_bias:
                            taken = self._last_data_branch
                        else:
                            taken = not self._last_data_branch
                        self._last_data_branch = taken
                        append((op, pc, -1, source(), -1, -1, taken,
                                pc + 2 * INSTRUCTION_BYTES))
                        if taken:
                            slot += 1  # the skipped instruction never commits
                    else:
                        append((op, pc, next_dest(), source(), source(),
                                -1, False, -1))
                    slot += 1

        return Trace(
            name=profile.name, seed=self.seed,
            instructions=InstructionColumns.of(*zip(*rows)),
            description=profile.description,
        )


def generate_trace(
    name: str, num_instructions: int, seed: int = 0
) -> Trace:
    """One-call convenience: profile lookup + generation."""
    from repro.workloads.spec import profile as lookup

    return TraceGenerator(lookup(name), seed).generate(num_instructions)
