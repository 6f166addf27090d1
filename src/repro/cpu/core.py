"""Timestamp-based out-of-order core model.

Instead of stepping cycle by cycle, the model computes per-instruction
event times with dataflow recurrences::

    fetch    = max(fetch slot, branch redirect, icache line ready)
    dispatch = fetch + frontend depth, gated by RUU/LSQ occupancy
    issue    = max(dispatch, source operands ready, functional unit free)
    complete = issue + latency            (loads: cache hierarchy latency)
    commit   = in order, commit-width per cycle, >= complete

This is a standard fast approximation of an RUU machine (SimpleScalar's
sim-outorder is the paper's vehicle): it preserves the effects the paper's
execution-time numbers depend on — memory latency partially hidden by
independent work, bounded by window size, issue width and the dependence
chains in the trace — while running orders of magnitude faster than a
cycle-accurate loop, which is what makes a pure-Python reproduction
feasible (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.addresses import log2_exact
from repro.cache.cache import AccessKind
from repro.cpu.branch import BimodalPredictor, BranchPredictor, PerfectPredictor
from repro.cpu.isa import NUM_REGISTERS, Instruction, OpClass
from repro.cpu.memory import MemorySystem

#: Default execution latencies (cycles) per op class, SimpleScalar-flavoured.
DEFAULT_LATENCIES: Mapping[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMUL: 3,
    OpClass.FALU: 2,
    OpClass.FMUL: 4,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    # LOAD latency comes from the memory system.
}

#: Default functional-unit counts for an 8-way core.
DEFAULT_UNITS_8WAY: Mapping[OpClass, int] = {
    OpClass.IALU: 8,
    OpClass.IMUL: 2,
    OpClass.FALU: 4,
    OpClass.FMUL: 2,
    OpClass.LOAD: 4,
    OpClass.STORE: 4,
    OpClass.BRANCH: 8,
}


@dataclass(frozen=True)
class CoreConfig:
    """Static out-of-order core parameters.

    The paper uses a 4-way core for the 2/3-level hierarchies and an 8-way
    core "with resources (RUU size, LSQ size, etc.) twice of" the 4-way one
    for 5/7 levels (Section 1.1); :func:`paper_core` builds both.
    """

    name: str
    width: int
    ruu_size: int
    lsq_size: int
    units: Mapping[OpClass, int]
    latencies: Mapping[OpClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCIES)
    )
    frontend_depth: int = 3
    mispredict_penalty: int = 3
    #: Miss-status-holding registers: maximum loads outstanding past L1 at
    #: once (non-blocking-cache bandwidth; Kroft-style lockup-free caches
    #: are the paper's first related-work citation).  0 disables the limit.
    mshr_count: int = 16

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.ruu_size < self.width:
            raise ValueError("ruu_size must be at least the machine width")
        if self.lsq_size < 1:
            raise ValueError(f"lsq_size must be >= 1, got {self.lsq_size}")
        for op in OpClass:
            if self.units.get(op, 0) < 1:
                raise ValueError(f"need at least one unit for {op.value}")


def paper_core(width: int = 8) -> CoreConfig:
    """The paper's cores: ``paper_core(8)`` (5/7 levels), ``paper_core(4)``."""
    if width == 8:
        return CoreConfig(
            name="paper-8way", width=8, ruu_size=128, lsq_size=64,
            units=dict(DEFAULT_UNITS_8WAY),
        )
    if width == 4:
        halved = {op: max(1, count // 2) for op, count in DEFAULT_UNITS_8WAY.items()}
        halved[OpClass.IALU] = 4
        halved[OpClass.BRANCH] = 4
        return CoreConfig(
            name="paper-4way", width=4, ruu_size=64, lsq_size=32, units=halved,
        )
    raise ValueError(f"the paper uses 4- and 8-way cores, got width={width}")


def core_references(
    instructions: Iterable[Instruction], fetch_block_size: int
) -> Iterator[Tuple[int, AccessKind]]:
    """The ``(address, kind)`` accesses :meth:`OutOfOrderCore.run` makes, in order.

    One instruction fetch per change of fetch line, then one load or store
    per memory instruction.  Every branch, taken or not, ends the fetch
    line, so the instruction after a branch always fetches.  That is one
    rule away from :meth:`repro.workloads.trace.Trace.memory_references`,
    the stream of the hierarchy-only figures, which ends a line only at
    *taken* branches and so issues fewer fetches.
    """
    line_shift = log2_exact(fetch_block_size)
    current_line = -1
    for inst in instructions:
        line = inst.pc >> line_shift
        if line != current_line:
            current_line = line
            yield inst.pc, AccessKind.INSTRUCTION
        op = inst.op
        if op is OpClass.LOAD:
            yield inst.addr, AccessKind.LOAD
        elif op is OpClass.STORE:
            yield inst.addr, AccessKind.STORE
        elif op is OpClass.BRANCH:
            current_line = -1


@dataclass
class CoreResult:
    """Outcome of one trace run."""

    cycles: int
    instructions: int
    loads: int
    stores: int
    branches: int
    mispredicts: int
    fetch_lines: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0


class _UnitPool:
    """Next-free times for one functional-unit class (fully pipelined)."""

    __slots__ = ("free",)

    def __init__(self, count: int) -> None:
        self.free = [0] * count

    def issue_at(self, ready: int) -> int:
        free = self.free
        best = 0
        best_time = free[0]
        for index in range(1, len(free)):
            if free[index] < best_time:
                best_time = free[index]
                best = index
        issue = ready if ready > best_time else best_time
        free[best] = issue + 1
        return issue


class OutOfOrderCore:
    """Runs instruction traces against a memory system."""

    def __init__(
        self,
        config: CoreConfig,
        memory: MemorySystem,
        predictor: Optional[BranchPredictor] = None,
    ) -> None:
        self.config = config
        self.memory = memory
        self.predictor = predictor if predictor is not None else BimodalPredictor()

    def run(
        self,
        instructions: Iterable[Instruction],
        warmup: int = 0,
        on_warmup_end: Optional[callable] = None,
    ) -> CoreResult:
        """Execute a trace; return timing for the post-warmup portion.

        ``warmup`` instructions execute normally (caches, predictors and
        filters train) but are excluded from the returned cycle and event
        counts — the SimPoint-style fast-forward the paper relies on
        (Section 4.1), scaled down.  ``on_warmup_end`` fires once when the
        warmup boundary is crossed, letting the caller reset energy or
        coverage meters at the same point.
        """
        config = self.config
        memory = self.memory
        predictor = self.predictor
        perfect_branches = isinstance(predictor, PerfectPredictor)

        line_shift = log2_exact(memory.fetch_block_size)
        l1i_latency = memory.l1_instruction_latency
        # Loads costlier than this are "misses" for MSHR purposes; use the
        # pipelined L1I latency as the proxy for the L1D hit cost.
        l1d_threshold = l1i_latency
        mshr_free = [0] * config.mshr_count if config.mshr_count else None

        reg_ready = [0] * NUM_REGISTERS
        units: Dict[OpClass, _UnitPool] = {
            op: _UnitPool(config.units[op]) for op in OpClass
        }
        latencies = config.latencies

        # Ring buffers of commit times for window occupancy.
        ruu: list = [0] * config.ruu_size
        ruu_head = 0
        lsq: list = [0] * config.lsq_size
        lsq_head = 0

        fetch_cycle = 0
        fetched_this_cycle = 0
        redirect = 0
        current_line = -1
        fetch_lines = 0

        last_commit = 0
        committed_this_cycle = 0

        count = 0
        loads = stores = branches = mispredicts = 0
        warmup_commit = 0
        warmup_fetch_lines = 0

        for inst in instructions:
            count += 1
            if count == warmup + 1 and warmup:
                warmup_commit = last_commit
                warmup_fetch_lines = fetch_lines
                loads = stores = branches = mispredicts = 0
                if on_warmup_end is not None:
                    on_warmup_end()
            op = inst.op

            # ---------------------------------------------------- fetch
            if redirect > fetch_cycle:
                fetch_cycle = redirect
                fetched_this_cycle = 0
            line = inst.pc >> line_shift
            if line != current_line:
                current_line = line
                fetch_lines += 1
                latency = memory.access(inst.pc, AccessKind.INSTRUCTION)
                stall = latency - l1i_latency
                if stall > 0:
                    fetch_cycle += stall
                    fetched_this_cycle = 0
            if fetched_this_cycle >= config.width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            fetched_this_cycle += 1
            fetch_time = fetch_cycle

            # ------------------------------------------------- dispatch
            dispatch = fetch_time + config.frontend_depth
            window_free = ruu[ruu_head]
            if window_free > dispatch:
                dispatch = window_free
            if op is OpClass.LOAD or op is OpClass.STORE:
                lsq_free = lsq[lsq_head]
                if lsq_free > dispatch:
                    dispatch = lsq_free

            # ---------------------------------------------------- issue
            ready = dispatch
            src1 = inst.src1
            if src1 >= 0 and reg_ready[src1] > ready:
                ready = reg_ready[src1]
            src2 = inst.src2
            if src2 >= 0 and reg_ready[src2] > ready:
                ready = reg_ready[src2]
            issue = units[op].issue_at(ready)

            # ------------------------------------------------- complete
            if op is OpClass.LOAD:
                loads += 1
                latency = memory.access(inst.addr, AccessKind.LOAD)
                if mshr_free is not None and latency > l1d_threshold:
                    # a long-latency load needs a free MSHR slot; the slot
                    # is held until the load returns
                    best = 0
                    best_time = mshr_free[0]
                    for index in range(1, len(mshr_free)):
                        if mshr_free[index] < best_time:
                            best_time = mshr_free[index]
                            best = index
                    if best_time > issue:
                        issue = best_time
                    mshr_free[best] = issue + latency
                complete = issue + latency
            elif op is OpClass.STORE:
                stores += 1
                memory.access(inst.addr, AccessKind.STORE)
                complete = issue + latencies[OpClass.STORE]
            else:
                complete = issue + latencies[op]

            if op is OpClass.BRANCH:
                branches += 1
                if not perfect_branches:
                    predicted = predictor.predict(inst.pc)
                    predictor.update(inst.pc, inst.taken)
                    if predicted != inst.taken:
                        mispredicts += 1
                        new_redirect = complete + config.mispredict_penalty
                        if new_redirect > redirect:
                            redirect = new_redirect
                # Every branch, taken or not, ends the fetch line (see
                # core_references).
                current_line = -1

            dest = inst.dest
            if dest >= 0:
                reg_ready[dest] = complete

            # --------------------------------------------------- commit
            if complete > last_commit:
                last_commit = complete
                committed_this_cycle = 1
            else:
                committed_this_cycle += 1
                if committed_this_cycle > config.width:
                    last_commit += 1
                    committed_this_cycle = 1

            ruu[ruu_head] = last_commit
            ruu_head += 1
            if ruu_head == config.ruu_size:
                ruu_head = 0
            if op is OpClass.LOAD or op is OpClass.STORE:
                lsq[lsq_head] = last_commit
                lsq_head += 1
                if lsq_head == config.lsq_size:
                    lsq_head = 0

        return CoreResult(
            cycles=last_commit - warmup_commit,
            instructions=max(count - warmup, 0),
            loads=loads,
            stores=stores,
            branches=branches,
            mispredicts=mispredicts,
            fetch_lines=fetch_lines - warmup_fetch_lines,
        )
