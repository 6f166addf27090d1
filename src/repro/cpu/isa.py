"""Trace instruction records.

A trace instruction is a pre-decoded micro-op: operation class, register
operands, and — for memory operations and branches — the effective address
or the branch outcome.  Traces are *execution* traces (the committed path),
so the core model charges a redirect penalty on mispredictions instead of
simulating wrong-path instructions, like most trace-driven simulators.

Traces hold their instructions as :class:`InstructionColumns`, one numpy
column per :class:`Instruction` field; an :class:`Instruction` object is
built only when code asks for one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List, NamedTuple, Union

import numpy as np

#: Architectural register count (shared integer+FP namespace for simplicity).
NUM_REGISTERS = 64

#: Instruction size in bytes (a RISC ISA, like the paper's Alpha binaries).
INSTRUCTION_BYTES = 4


class OpClass(enum.Enum):
    """Operation classes with distinct latencies / functional units."""

    IALU = "ialu"
    IMUL = "imul"
    FALU = "falu"
    FMUL = "fmul"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One committed instruction.

    Attributes:
        op: operation class.
        pc: instruction address.
        dest: destination register, or -1 for none.
        src1, src2: source registers, or -1 for none.
        addr: effective byte address for LOAD/STORE, else -1.
        taken: branch outcome (BRANCH only).
        target: branch target pc (BRANCH only), else -1.
    """

    op: OpClass
    pc: int
    dest: int = -1
    src1: int = -1
    src2: int = -1
    addr: int = -1
    taken: bool = False
    target: int = -1

    def __post_init__(self) -> None:
        if self.op.is_memory and self.addr < 0:
            raise ValueError(f"{self.op.value} instruction needs an address")
        for register in (self.dest, self.src1, self.src2):
            if register >= NUM_REGISTERS:
                raise ValueError(
                    f"register {register} out of range (0..{NUM_REGISTERS - 1})"
                )


#: The op classes in op-column code order: code ``i`` is ``OP_CLASSES[i]``.
OP_CLASSES = tuple(OpClass)
#: Column codes keyed by the class's value (hashing an Enum member runs
#: Python code, which per instruction is costly).
OP_CODES = {op.value: code for code, op in enumerate(OP_CLASSES)}
#: Codes of the memory op classes (LOAD, STORE).
MEMORY_OP_CODES = [OP_CODES[op.value] for op in OP_CLASSES if op.is_memory]


class InstructionColumns(NamedTuple):
    """Instructions as parallel numpy columns, program order.

    Field ``i`` of every column is instruction ``i``'s field of the same
    name (see :class:`Instruction`), except ``op``, which holds the op
    class's code: its index in :data:`OP_CLASSES`.  Dtypes: ``op`` uint8;
    ``pc``, ``addr`` and ``target`` int64 (wide, so an address outside
    the 32-bit space reaches the cache's own check); the registers int8;
    ``taken`` bool.
    """

    op: np.ndarray
    pc: np.ndarray
    dest: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    addr: np.ndarray
    taken: np.ndarray
    target: np.ndarray

    @classmethod
    def of(cls, *columns) -> "InstructionColumns":
        """Columns in field order, cast to the column dtypes."""
        return cls(*map(np.asarray, columns, _DTYPES))

    def instructions(self) -> List[Instruction]:
        """The rows as :class:`Instruction` objects (built on demand)."""
        ops = map(OP_CLASSES.__getitem__, self.op.tolist())
        return list(map(Instruction, ops,
                        *(column.tolist() for column in self[1:])))

    def validate(self) -> None:
        """Raise what :class:`Instruction` raises for the first invalid row.

        One vectorised check per column: a memory op needs an address and
        a register must be below :data:`NUM_REGISTERS`.  The first row
        that fails any of them is built as an :class:`Instruction`, which
        raises its own :class:`ValueError`.
        """
        count = len(self.op)
        for name, column in zip(self._fields, self):
            if len(column) != count:
                raise ValueError(f"column {name!r} has {len(column)} rows, "
                                 f"'op' has {count}")
        if count and int(self.op.max()) >= len(OP_CLASSES):
            raise ValueError(f"op code {int(self.op.max())} out of range "
                             f"(0..{len(OP_CLASSES) - 1})")
        invalid = np.isin(self.op, MEMORY_OP_CODES) & (self.addr < 0)
        for register in (self.dest, self.src1, self.src2):
            invalid |= register >= NUM_REGISTERS
        if invalid.any():
            row = int(invalid.argmax())
            Instruction(OP_CLASSES[int(self.op[row])],
                        *(column[row].item() for column in self[1:]))


_DTYPES = (np.uint8, np.int64, np.int8, np.int8, np.int8, np.int64,
           np.bool_, np.int64)
_FIELDS = tuple(map(attrgetter, InstructionColumns._fields[1:]))
_op_value = attrgetter("op._value_")


def pack(instructions: Iterable[Instruction]) -> InstructionColumns:
    """:class:`Instruction` objects as columns, one pass per column."""
    if not isinstance(instructions, (list, tuple)):
        instructions = list(instructions)
    count = len(instructions)
    ops = np.fromiter(map(OP_CODES.__getitem__, map(_op_value, instructions)),
                      np.uint8, count)
    return InstructionColumns(ops, *(
        np.fromiter(map(field, instructions), dtype, count)
        for field, dtype in zip(_FIELDS, _DTYPES[1:])))


def as_columns(
    instructions: Union[InstructionColumns, Iterable[Instruction]],
) -> InstructionColumns:
    """The columns of a trace, or of :class:`Instruction` objects.

    :class:`InstructionColumns` pass through; anything with a ``columns``
    attribute (a :class:`~repro.workloads.trace.Trace`) gives that;
    any other iterable of instructions is packed once (:func:`pack`).
    """
    if isinstance(instructions, InstructionColumns):
        return instructions
    columns = getattr(instructions, "columns", None)
    if isinstance(columns, InstructionColumns):
        return columns
    return pack(instructions)
