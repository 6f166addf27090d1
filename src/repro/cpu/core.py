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

from collections import deque
from dataclasses import dataclass, field
from heapq import heapreplace
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.addresses import ADDRESS_SPACE, log2_exact, validate_address
from repro.cache.cache import AccessKind
from repro.cpu.branch import BimodalPredictor, BranchPredictor, PerfectPredictor
from repro.cpu.isa import (
    NUM_REGISTERS,
    OP_CLASSES,
    OP_CODES,
    Instruction,
    InstructionColumns,
    OpClass,
    as_columns,
)
from repro.cpu.memory import MemorySystem

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

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
        for name in ("frontend_depth", "mispredict_penalty", "mshr_count"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        for op in OpClass:
            if self.units.get(op, 0) < 1:
                raise ValueError(f"need at least one unit for {op.value}")
            if op is not OpClass.LOAD and op not in self.latencies:
                raise ValueError(f"need a latency for {op.value}")


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


class CoreReferences(NamedTuple):
    """A derived reference stream, as columns (:func:`derive_references`)."""

    #: Byte address of each access, in program order.
    addresses: np.ndarray
    #: Each access's kind, as its index in ``tuple(AccessKind)``.
    kinds: np.ndarray
    #: Index of the first access of instruction ``warmup``: the number of
    #: accesses the warm-up makes.
    boundary: int
    #: Per instruction: True where it starts a fetch line, so its fetch is
    #: one of the accesses.
    fetches: np.ndarray


#: Kind codes of :class:`CoreReferences` (the kernel's ``KINDS`` order).
_FETCH, _LOAD, _STORE = map(tuple(AccessKind).index, (
    AccessKind.INSTRUCTION, AccessKind.LOAD, AccessKind.STORE))
_LOAD_OP, _STORE_OP, _BRANCH_OP = (
    OP_CODES[op.value] for op in (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH))


def derive_references(
    columns: InstructionColumns, fetch_block_size: int, warmup: int = 0,
    taken_only: bool = False,
) -> CoreReferences:
    """The reference stream of a trace's columns, in program order.

    One instruction fetch per change of fetch line, then one load or store
    per memory instruction.  The first instruction fetches, and so does
    the one after a branch: after every branch (the core's rule), or with
    ``taken_only`` after taken ones only (the rule of
    :meth:`repro.workloads.trace.Trace.memory_references`, the stream of
    the hierarchy-only figures, which so issues fewer fetches).

    One vectorised pass: one cumulative sum of accesses per instruction
    places every access and gives the warm-up boundary.  Addresses are
    returned as int64, unchecked; kinds as int8 codes; ``fetches`` marks
    the instructions that fetch.
    """
    ops, pcs, addrs = columns.op, columns.pc, columns.addr
    count = len(ops)
    is_load = ops == _LOAD_OP
    is_data = is_load | (ops == _STORE_OP)
    ends_line = ops == _BRANCH_OP
    if taken_only:
        ends_line &= columns.taken

    # Fetch when the pc's line differs from the previous instruction's,
    # or from -1 at the start and after a line-ending branch.
    lines = pcs >> log2_exact(fetch_block_size)
    previous = np.full(count, -1, np.int64)
    previous[1:] = np.where(ends_line[:-1], -1, lines[:-1])
    is_fetch = lines != previous

    # ends[i]: accesses made up to and including instruction i's; its
    # fetch comes first, its load or store last.
    ends = np.cumsum(is_fetch.astype(np.int64) + is_data)
    total = int(ends[-1]) if count else 0
    measured_from = min(max(warmup, 0), count)
    boundary = int(ends[measured_from - 1]) if measured_from else 0

    addresses = np.empty(total, np.int64)
    kinds = np.empty(total, np.int8)
    data_at = ends[is_data] - 1
    addresses[data_at] = addrs[is_data]
    kinds[data_at] = np.where(is_load[is_data], _LOAD, _STORE)
    fetch_at = (ends - is_data)[is_fetch] - 1
    addresses[fetch_at] = pcs[is_fetch]
    kinds[fetch_at] = _FETCH
    return CoreReferences(addresses, kinds, boundary, is_fetch)


def core_references(
    instructions: Union[Trace, Iterable[Instruction]], fetch_block_size: int,
    warmup: int = 0,
) -> CoreReferences:
    """The accesses :meth:`OutOfOrderCore.run` makes, in order.

    :func:`derive_references` over the trace's columns (or the
    instructions, packed once), ending the fetch line after every branch,
    taken or not, as the core does.  Addresses are validated to the
    32-bit address space, as a cache access would, and narrowed to
    uint32.
    """
    derived = derive_references(as_columns(instructions), fetch_block_size,
                                warmup)
    wide = derived.addresses
    outside = (wide < 0) | (wide >= ADDRESS_SPACE)
    if outside.any():
        validate_address(int(wide[outside.argmax()]))
    return derived._replace(addresses=wide.astype(np.uint32))


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
        instructions: Union[Trace, Iterable[Instruction]],
        warmup: int = 0,
        on_warmup_end: Optional[callable] = None,
        latencies: Optional[Sequence[int]] = None,
        references: Optional[CoreReferences] = None,
    ) -> CoreResult:
        """Execute a trace; return timing for the post-warmup portion.

        ``instructions`` is a :class:`~repro.workloads.trace.Trace`, whose
        columns the loop reads, or any iterable of :class:`Instruction`
        objects, packed into columns once first.  ``warmup`` instructions
        execute normally (caches, predictors and filters train) but are
        excluded from the returned cycle and event counts — the
        SimPoint-style fast-forward the paper relies on (Section 4.1),
        scaled down.  ``on_warmup_end`` fires once when the warmup
        boundary is crossed, letting the caller reset energy or coverage
        meters at the same point.  A negative ``warmup``, or a positive
        one that covers the whole trace (it would measure nothing), raises
        :class:`ValueError` before anything runs.

        Two loops, one result.  Without ``latencies`` the loop asks the
        memory system for each fetch, load and store as it reaches it:
        ``run_core_trace(engine="interp")`` takes this loop, the oracle.
        ``run_core_trace(engine="fast")`` passes ``references``, the
        trace's stream as :func:`core_references` derives it for the
        memory's fetch block, and ``latencies``, the latency of each of
        its accesses in order.  The memory system is never accessed: the
        fetch stalls, load latencies and branch mispredicts (one pass of
        the predictor over the trace's branches) become per-instruction
        columns first, and the loop times the dataflow recurrences alone.
        The two come together (one without the other raises
        :class:`ValueError`), and a column, stream and trace that disagree
        in length raise :class:`RuntimeError`.
        """
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        columns = as_columns(instructions)
        if 0 < warmup >= len(columns.op):
            raise ValueError(
                f"core run measured nothing: warmup={warmup} covers the "
                f"entire trace ({len(columns.op)} instructions)")
        if (latencies is None) != (references is None):
            raise ValueError(
                "latencies and references come together: pass both or "
                "neither")
        if latencies is not None:
            return self._run_over_latencies(columns, references, latencies,
                                            warmup, on_warmup_end)
        config = self.config
        memory = self.memory
        access = memory.access
        predictor = self.predictor
        predict = (None if isinstance(predictor, PerfectPredictor)
                   else predictor.predict)
        update = predictor.update
        FETCH, LOAD_ACCESS, STORE_ACCESS = (
            AccessKind.INSTRUCTION, AccessKind.LOAD, AccessKind.STORE)
        LOAD, STORE, BRANCH = _LOAD_OP, _STORE_OP, _BRANCH_OP
        width = config.width
        frontend_depth = config.frontend_depth
        mispredict_penalty = config.mispredict_penalty
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size

        line_shift = log2_exact(memory.fetch_block_size)
        l1i_latency = memory.l1_instruction_latency
        # Loads costlier than this are "misses" for MSHR purposes; use the
        # pipelined L1I latency as the proxy for the L1D hit cost.
        l1d_threshold = l1i_latency
        # Next-free times of the MSHR slots and of each op class's units,
        # as heaps.  A slot or unit is only ever chosen by its free time
        # (units of a class are identical and fully pipelined), so taking
        # the heap's minimum issues exactly as taking the lowest-numbered
        # earliest-free one would.
        mshrs = [0] * config.mshr_count
        # Per op code: its class's units' heap and its latency (a load's
        # comes from the memory).
        op_state = [([0] * config.units[op],
                     None if op is OpClass.LOAD else config.latencies[op])
                    for op in OP_CLASSES]

        reg_ready = [0] * NUM_REGISTERS

        # Ring buffers of commit times for window occupancy.
        ruu: list = [0] * ruu_size
        ruu_head = 0
        lsq: list = [0] * lsq_size
        lsq_head = 0

        fetch_cycle = 0
        fetched_this_cycle = 0
        redirect = 0
        current_line = -1
        fetch_lines = 0

        last_commit = 0
        committed_this_cycle = 0

        count = 0
        warmup_end = warmup + 1 if warmup else 0
        loads = stores = branches = mispredicts = 0
        warmup_commit = 0
        warmup_fetch_lines = 0

        rows = zip(*(column.tolist() for column in columns[:7]))
        for count, (op, pc, dest, src1, src2, addr, taken) in enumerate(
                rows, 1):
            if count == warmup_end:
                warmup_commit = last_commit
                warmup_fetch_lines = fetch_lines
                loads = stores = branches = mispredicts = 0
                if on_warmup_end is not None:
                    on_warmup_end()

            # ---------------------------------------------------- fetch
            if redirect > fetch_cycle:
                fetch_cycle = redirect
                fetched_this_cycle = 0
            line = pc >> line_shift
            if line != current_line:
                current_line = line
                fetch_lines += 1
                stall = access(pc, FETCH) - l1i_latency
                if stall > 0:
                    fetch_cycle += stall
                    fetched_this_cycle = 0
            if fetched_this_cycle >= width:
                fetch_cycle += 1
                fetched_this_cycle = 1
            else:
                fetched_this_cycle += 1

            # ------------------------------------------------- dispatch
            dispatch = fetch_cycle + frontend_depth
            window_free = ruu[ruu_head]
            if window_free > dispatch:
                dispatch = window_free
            is_memory = op == LOAD or op == STORE
            if is_memory:
                lsq_free = lsq[lsq_head]
                if lsq_free > dispatch:
                    dispatch = lsq_free

            # ---------------------------------------------------- issue
            ready = dispatch
            if src1 >= 0 and reg_ready[src1] > ready:
                ready = reg_ready[src1]
            if src2 >= 0 and reg_ready[src2] > ready:
                ready = reg_ready[src2]
            units, latency = op_state[op]
            unit_free = units[0]
            issue = ready if ready > unit_free else unit_free
            heapreplace(units, issue + 1)

            # ------------------------------------------------- complete
            if op == LOAD:
                loads += 1
                latency = access(addr, LOAD_ACCESS)
                if mshrs and latency > l1d_threshold:
                    # a long-latency load needs a free MSHR slot; the slot
                    # is held until the load returns
                    slot_free = mshrs[0]
                    if slot_free > issue:
                        issue = slot_free
                    heapreplace(mshrs, issue + latency)
            elif op == STORE:
                stores += 1
                access(addr, STORE_ACCESS)
            complete = issue + latency

            if op == BRANCH:
                branches += 1
                if predict is not None:
                    predicted = predict(pc)
                    update(pc, taken)
                    if predicted != taken:
                        mispredicts += 1
                        new_redirect = complete + mispredict_penalty
                        if new_redirect > redirect:
                            redirect = new_redirect
                # Every branch, taken or not, ends the fetch line (see
                # core_references).
                current_line = -1

            if dest >= 0:
                reg_ready[dest] = complete

            # --------------------------------------------------- commit
            if complete > last_commit:
                last_commit = complete
                committed_this_cycle = 1
            else:
                committed_this_cycle += 1
                if committed_this_cycle > width:
                    last_commit += 1
                    committed_this_cycle = 1

            ruu[ruu_head] = last_commit
            ruu_head += 1
            if ruu_head == ruu_size:
                ruu_head = 0
            if is_memory:
                lsq[lsq_head] = last_commit
                lsq_head += 1
                if lsq_head == lsq_size:
                    lsq_head = 0

        return CoreResult(
            cycles=last_commit - warmup_commit,
            instructions=count - warmup,
            loads=loads,
            stores=stores,
            branches=branches,
            mispredicts=mispredicts,
            fetch_lines=fetch_lines - warmup_fetch_lines,
        )

    def _run_over_latencies(
        self,
        columns: InstructionColumns,
        references: CoreReferences,
        latencies: Sequence[int],
        warmup: int,
        on_warmup_end: Optional[callable],
    ) -> CoreResult:
        """:meth:`run` over a latency column: the fast engine's loop.

        Everything that depends only on the trace and the column is a
        per-instruction column before the loop starts; the loop keeps the
        recurrences of the interpreter's, in the same order, and applies
        a mispredict's redirect at its branch (fetch time only grows, so
        only the next instruction could see it).
        """
        config = self.config
        memory = self.memory
        ops = columns.op
        count = len(ops)
        latencies = np.asarray(latencies, np.int64)
        if (len(latencies) != len(references.kinds)
                or len(references.fetches) != count):
            raise RuntimeError(
                f"{len(latencies)} latencies for the {len(references.kinds)} "
                f"accesses of a derived reference stream of "
                f"{len(references.fetches)} instructions, over a trace of "
                f"{count}")
        l1i_latency = memory.l1_instruction_latency
        is_load = ops == _LOAD_OP
        is_memory = is_load | (ops == _STORE_OP)

        # Per instruction: its class's latency or, for a load, the
        # memory's; the cycles its line fetch stalls the front end; whether
        # it holds an MSHR slot (see run); whether it is a mispredicted
        # branch.
        latency_column = np.array(
            [config.latencies.get(op, 0) for op in OP_CLASSES], np.int64)[ops]
        latency_column[is_load] = latencies[references.kinds == _LOAD]
        stall_column = np.zeros(count, np.int64)
        stall_column[references.fetches] = np.maximum(
            latencies[references.kinds == _FETCH] - l1i_latency, 0)
        holds_mshr = (is_load & (latency_column > l1i_latency)
                      & (config.mshr_count > 0))
        mispredicted = np.zeros(count, np.bool_)
        predictor = self.predictor
        if not isinstance(predictor, PerfectPredictor):
            predict, update = predictor.predict, predictor.update
            branch_at = np.flatnonzero(ops == _BRANCH_OP)
            wrong = []
            for pc, taken in zip(columns.pc[branch_at].tolist(),
                                 columns.taken[branch_at].tolist()):
                wrong.append(predict(pc) != taken)
                update(pc, taken)
            mispredicted[branch_at] = wrong

        # Register -1 reads slot NUM_REGISTERS, which stays 0, and writes
        # slot NUM_REGISTERS + 1, which nothing reads.
        reg_ready = [0] * (NUM_REGISTERS + 2)
        sources = [np.where(column < 0, NUM_REGISTERS, column).tolist()
                   for column in (columns.src1, columns.src2)]
        dests = np.where(columns.dest < 0, NUM_REGISTERS + 1,
                         columns.dest).tolist()
        heaps = [[0] * config.units[op] for op in OP_CLASSES]
        # The windows hold the commit times of their last ruu_size (or
        # lsq_size) instructions; the leftmost frees the next slot.
        ruu = deque([0] * config.ruu_size, config.ruu_size)
        lsq = deque([0] * config.lsq_size, config.lsq_size)
        mshrs = [0] * config.mshr_count
        width = config.width
        redirect_delay = config.mispredict_penalty + config.frontend_depth

        # The fetch cycle plus the front-end depth: the cycle the front
        # end delivers the next instruction to dispatch.
        delivery = config.frontend_depth
        fetched_this_cycle = 0
        last_commit = committed_this_cycle = 0
        warmup_commit = 0
        # The warm-up, then the rest: counting starts at instruction
        # ``warmup``.
        rows = zip(map(heaps.__getitem__, ops.tolist()),
                   latency_column.tolist(), stall_column.tolist(), *sources,
                   dests, is_memory.tolist(), holds_mshr.tolist(),
                   mispredicted.tolist())
        for stop in (warmup, None):
            for (units, latency, stall, src1, src2, dest, memory_op,
                 long_load, redirects) in islice(rows, stop):
                # ------------------------------------------------ fetch
                if stall:
                    delivery += stall
                    fetched_this_cycle = 0
                if fetched_this_cycle >= width:
                    delivery += 1
                    fetched_this_cycle = 1
                else:
                    fetched_this_cycle += 1

                # ------------------------------------- dispatch, issue
                ready = ruu[0]
                if delivery > ready:
                    ready = delivery
                if memory_op:
                    free = lsq[0]
                    if free > ready:
                        ready = free
                free = reg_ready[src1]
                if free > ready:
                    ready = free
                free = reg_ready[src2]
                if free > ready:
                    ready = free
                free = units[0]
                issue = ready if ready > free else free
                heapreplace(units, issue + 1)

                # --------------------------------------------- complete
                if long_load:
                    free = mshrs[0]
                    if free > issue:
                        issue = free
                    heapreplace(mshrs, issue + latency)
                complete = issue + latency
                reg_ready[dest] = complete
                if redirects:
                    redirect = complete + redirect_delay
                    if redirect > delivery:
                        delivery = redirect
                        fetched_this_cycle = 0

                # ----------------------------------------------- commit
                if complete > last_commit:
                    last_commit = complete
                    committed_this_cycle = 1
                else:
                    committed_this_cycle += 1
                    if committed_this_cycle > width:
                        last_commit += 1
                        committed_this_cycle = 1
                ruu.append(last_commit)
                if memory_op:
                    lsq.append(last_commit)
            if stop:
                warmup_commit = last_commit
                if on_warmup_end is not None:
                    on_warmup_end()

        measured = np.bincount(ops[warmup:], minlength=len(OP_CLASSES))
        return CoreResult(
            cycles=last_commit - warmup_commit,
            instructions=count - warmup,
            loads=int(measured[_LOAD_OP]),
            stores=int(measured[_STORE_OP]),
            branches=int(measured[_BRANCH_OP]),
            mispredicts=int(mispredicted[warmup:].sum()),
            fetch_lines=int(references.fetches[warmup:].sum()),
        )
